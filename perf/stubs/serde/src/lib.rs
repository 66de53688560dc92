//! Offline stand-in for the `serde` crate (see `perf/README.md`, "Offline
//! build"). The repository only ever serializes to and from JSON, so the
//! data model here *is* JSON: [`Serialize`] streams a value into a
//! [`Serializer`] sink (a text writer or a [`Value`] builder, both
//! monomorphized like serde's), and [`Deserialize`] reads one back from a
//! parsed [`Value`]. The derives in `serde_derive` target these traits.

mod impls;
mod value;
mod write;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value, ValueBuilder};
pub use write::Writer;

use std::fmt;

/// A sink for one JSON document, driven in document order.
pub trait Serializer {
    fn put_null(&mut self);
    fn put_bool(&mut self, v: bool);
    fn put_u64(&mut self, v: u64);
    fn put_i64(&mut self, v: i64);
    fn put_f64(&mut self, v: f64);
    fn put_str(&mut self, v: &str);
    fn begin_seq(&mut self);
    /// Announces the next element of the open sequence.
    fn seq_item(&mut self);
    fn end_seq(&mut self);
    fn begin_map(&mut self);
    /// Announces the next entry of the open map; its value follows.
    fn map_key(&mut self, key: &str);
    fn end_map(&mut self);
}

/// A value that can be written as JSON.
pub trait Serialize {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S);
}

/// A value that can be read from parsed JSON.
pub trait Deserialize: Sized {
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// What a struct field of this type holds when its key is absent and
    /// it has no `#[serde(default)]`: an error, except for `Option`.
    fn missing(field: &'static str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`")))
    }
}

/// A type usable as a JSON object key: strings as they are, integers in
/// decimal, as serde_json writes them.
pub trait MapKey: Sized {
    fn to_key(&self) -> std::borrow::Cow<'_, str>;
    fn from_key(key: &str) -> Result<Self, Error>;
}

/// A serialization, parse or shape error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }

    pub fn invalid_type(found: &Value, expected: &str) -> Self {
        Error(format!(
            "invalid type: {}, expected {expected}",
            found.kind()
        ))
    }

    pub fn unknown_variant(of: &str, found: &str) -> Self {
        Error(format!("unknown variant `{found}` of {of}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Helpers the derived `Deserialize` impls call.
pub mod de {
    use super::{Deserialize, Error, Map, Value};

    pub fn expect_map<'v>(value: &'v Value, what: &str) -> Result<&'v Map, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::invalid_type(value, what))
    }

    pub fn expect_seq<'v>(value: &'v Value, len: usize, what: &str) -> Result<&'v [Value], Error> {
        match value.as_array() {
            Some(items) if items.len() == len => Ok(items),
            Some(items) => Err(Error::new(format!(
                "invalid length {}, expected {what} with {len}",
                items.len()
            ))),
            None => Err(Error::invalid_type(value, what)),
        }
    }

    pub fn field<T: Deserialize>(map: &Map, name: &'static str) -> Result<T, Error> {
        match map.get(name) {
            Some(value) => T::deserialize(value).map_err(|e| in_field(e, name)),
            None => T::missing(name),
        }
    }

    pub fn field_or<T: Deserialize>(
        map: &Map,
        name: &'static str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match map.get(name) {
            Some(value) => T::deserialize(value).map_err(|e| in_field(e, name)),
            None => Ok(default()),
        }
    }

    fn in_field(e: Error, name: &str) -> Error {
        Error::new(format!("{e} (in field `{name}`)"))
    }

    /// The tag string of an internally tagged enum.
    pub fn tag_of<'v>(map: &'v Map, tag: &str, what: &str) -> Result<&'v str, Error> {
        map.get(tag)
            .and_then(Value::as_str)
            .ok_or_else(|| Error::new(format!("missing tag `{tag}` of {what}")))
    }

    /// The variant name of an externally tagged enum and, unless it is a
    /// bare string (a unit variant), the value it wraps.
    pub fn variant_of<'v>(
        value: &'v Value,
        what: &str,
    ) -> Result<(&'v str, Option<&'v Value>), Error> {
        match value {
            Value::String(name) => Ok((name, None)),
            Value::Object(map) if map.len() == 1 => {
                let (name, inner) = map.iter().next().expect("one entry");
                Ok((name, Some(inner)))
            }
            other => Err(Error::invalid_type(other, what)),
        }
    }
}
