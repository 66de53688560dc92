//! `Serialize`/`Deserialize`/`MapKey` for std types.

use crate::{Deserialize, Error, MapKey, Serialize, Serializer, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

macro_rules! unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.put_u64(*self as u64);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                value
                    .as_u64()
                    .and_then(|v| <$ty>::try_from(v).ok())
                    .ok_or_else(|| Error::invalid_type(value, stringify!($ty)))
            }
        }
        impl MapKey for $ty {
            fn to_key(&self) -> Cow<'_, str> {
                Cow::Owned(self.to_string())
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::new(format!("invalid {} key `{key}`", stringify!($ty))))
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.put_i64(*self as i64);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                value
                    .as_i64()
                    .and_then(|v| <$ty>::try_from(v).ok())
                    .ok_or_else(|| Error::invalid_type(value, stringify!($ty)))
            }
        }
        impl MapKey for $ty {
            fn to_key(&self) -> Cow<'_, str> {
                Cow::Owned(self.to_string())
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::new(format!("invalid {} key `{key}`", stringify!($ty))))
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

macro_rules! float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.put_f64(*self as f64);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                value.as_f64().map(|v| v as $ty).ok_or_else(|| Error::invalid_type(value, stringify!($ty)))
            }
        }
    )*};
}
float!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.put_bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::invalid_type(value, "bool"))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.put_str(self);
    }
}

impl Serialize for String {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.put_str(self);
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::invalid_type(value, "a string"))
    }
}

impl MapKey for String {
    fn to_key(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

impl Serialize for () {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.put_null();
    }
}

impl Deserialize for () {
    fn deserialize(_: &Value) -> Result<Self, Error> {
        Ok(())
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

macro_rules! pointer {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                (**self).serialize(out);
            }
        }
        impl<T: Deserialize> Deserialize for $ptr<T> {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                T::deserialize(value).map($ptr::new)
            }
        }
    )*};
}
pointer!(Box, Rc, Arc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        match self {
            Some(v) => v.serialize(out),
            None => out.put_null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn missing(_: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn serialize_seq<'a, T, S>(items: impl IntoIterator<Item = &'a T>, out: &mut S)
where
    T: Serialize + 'a,
    S: Serializer + ?Sized,
{
    out.begin_seq();
    for item in items {
        out.seq_item();
        item.serialize(out);
    }
    out.end_seq();
}

fn deserialize_seq<T: Deserialize, C: FromIterator<T>>(value: &Value) -> Result<C, Error> {
    let items = value
        .as_array()
        .ok_or_else(|| Error::invalid_type(value, "a sequence"))?;
    items.iter().map(T::deserialize).collect()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        deserialize_seq(value)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_seq(self, out);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        deserialize_seq(value)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_seq(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let items: Vec<T> = deserialize_seq(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("invalid length {len}, expected an array of {N}")))
    }
}

macro_rules! tuple {
    ($(($($name:ident $idx:tt),+) $len:literal;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.begin_seq();
                $(out.seq_item(); self.$idx.serialize(out);)+
                out.end_seq();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let items = crate::de::expect_seq(value, $len, "a tuple")?;
                Ok(($($name::deserialize(&items[$idx])?,)+))
            }
        }
    )*};
}
tuple! {
    (A 0) 1;
    (A 0, B 1) 2;
    (A 0, B 1, C 2) 3;
    (A 0, B 1, C 2, D 3) 4;
}

fn serialize_map<'a, K, V, S>(entries: impl IntoIterator<Item = (&'a K, &'a V)>, out: &mut S)
where
    K: MapKey + 'a,
    V: Serialize + 'a,
    S: Serializer + ?Sized,
{
    out.begin_map();
    for (key, value) in entries {
        out.map_key(&key.to_key());
        value.serialize(out);
    }
    out.end_map();
}

fn deserialize_map<K: MapKey, V: Deserialize, C: FromIterator<(K, V)>>(
    value: &Value,
) -> Result<C, Error> {
    let map = value
        .as_object()
        .ok_or_else(|| Error::invalid_type(value, "a map"))?;
    map.iter()
        .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize(v)?)))
        .collect()
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_map(self, out);
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        deserialize_map(value)
    }
}

impl<K: MapKey, V: Serialize, H: BuildHasher> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_map(self, out);
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize, H: BuildHasher + Default> Deserialize
    for HashMap<K, V, H>
{
    fn deserialize(value: &Value) -> Result<Self, Error> {
        deserialize_map(value)
    }
}
