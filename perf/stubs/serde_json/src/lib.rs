//! Offline stand-in for the `serde_json` crate (see `perf/README.md`,
//! "Offline build"): `to_*`/`from_*` entry points, a strict parser,
//! [`Value`] and [`json!`] over the stand-in `serde` (which also holds the
//! text writer, so that `Value` can be `Display`). Text layout follows
//! serde_json (no spaces when compact; two-space indent and `": "` when
//! pretty; object keys of a `Value` sorted; non-finite floats as `null`).

mod read;

pub use serde::{Error, Map, Number, Value};

use serde::{Deserialize, Serialize, ValueBuilder, Writer};
use std::io;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut writer = Writer::compact();
    value.serialize(&mut writer);
    Ok(writer.into_string())
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut writer = Writer::pretty();
    value.serialize(&mut writer);
    Ok(writer.into_string())
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(|e| Error::new(e.to_string()))
}

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    let mut builder = ValueBuilder::default();
    value.serialize(&mut builder);
    Ok(builder.finish())
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    T::deserialize(&read::parse(text.as_bytes())?)
}

pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::deserialize(&value)
}

/// Builds a [`Value`] from JSON-like syntax. Keys are string literals;
/// a value is `null`, a nested `{..}` or `[..]`, or any expression that
/// implements `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json!(@seq items $($items)*);
        $crate::Value::Array(items)
    }};
    ({ $($entries:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json!(@map map $($entries)*);
        $crate::Value::Object(map)
    }};
    ($value:expr) => { $crate::to_value(&$value).expect("json! value serializes") };

    (@seq $items:ident) => {};
    (@seq $items:ident null $(, $($rest:tt)*)?) => {
        $items.push($crate::Value::Null); $crate::json!(@seq $items $($($rest)*)?);
    };
    (@seq $items:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $items.push($crate::json!({ $($inner)* })); $crate::json!(@seq $items $($($rest)*)?);
    };
    (@seq $items:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $items.push($crate::json!([ $($inner)* ])); $crate::json!(@seq $items $($($rest)*)?);
    };
    (@seq $items:ident $value:expr $(, $($rest:tt)*)?) => {
        $items.push($crate::json!($value)); $crate::json!(@seq $items $($($rest)*)?);
    };

    (@map $map:ident) => {};
    (@map $map:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::Value::Null);
        $crate::json!(@map $map $($($rest)*)?);
    };
    (@map $map:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::json!({ $($inner)* }));
        $crate::json!(@map $map $($($rest)*)?);
    };
    (@map $map:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::json!([ $($inner)* ]));
        $crate::json!(@map $map $($($rest)*)?);
    };
    (@map $map:ident $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::json!($value));
        $crate::json!(@map $map $($($rest)*)?);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_text_and_layout() {
        let n = 3u32;
        let v = json!({
            "name": format!("x{}", n), "list": [1, 2.5, null, { "k": true }],
            "nested": { "neg": -4, "s": "a\"b\n" }, "none": null, "sum": n * 2
        });
        let compact = to_string(&v).unwrap();
        assert_eq!(
            compact,
            r#"{"list":[1,2.5,null,{"k":true}],"name":"x3","nested":{"neg":-4,"s":"a\"b\n"},"none":null,"sum":6}"#
        );
        assert_eq!(from_str::<Value>(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.starts_with("{\n  \"list\": [\n    1,\n    2.5,"));
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
        assert_eq!(
            to_string_pretty(&json!({ "a": [], "b": {} })).unwrap(),
            "{\n  \"a\": [],\n  \"b\": {}\n}"
        );
        assert_eq!(v["nested"]["neg"], -4i64);
        assert!(v["absent"].is_null());
    }

    #[test]
    fn numbers_keep_their_kind() {
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(from_str::<f64>("1e-3").unwrap(), 0.001);
        assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("{} x").is_err());
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }
}
