//! The parsed form of a JSON document.

use crate::{Serialize, Serializer};
use std::collections::BTreeMap;
use std::ops::Index;

/// A JSON object; keys are kept sorted, as serde_json does by default.
pub type Map = BTreeMap<String, Value>;

/// A JSON number, kept as the narrowest of `u64`, `i64` and `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    PosInt(u64),
    /// Always negative.
    NegInt(i64),
    Float(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(v) => v as f64,
            Number::NegInt(v) => v as f64,
            Number::Float(v) => v,
        })
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_number().and_then(Number::as_u64)
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_number().and_then(Number::as_i64)
    }

    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().and_then(Number::as_f64)
    }

    fn as_number(&self) -> Option<&Number> {
        match self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The member `key` of an object, or the element of an array.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// A `&str` (object member) or `usize` (array element) index.
pub trait ValueIndex {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl ValueIndex for &str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object().and_then(|map| map.get(*self))
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array().and_then(|items| items.get(*self))
    }
}

impl<I: ValueIndex> Index<I> for Value {
    type Output = Value;

    /// Absent members read as `null`, as in serde_json.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! eq_number {
    ($($ty:ty => $as:ident as $wide:ty),*) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, other: &$ty) -> bool {
                self.$as() == Some(*other as $wide)
            }
        }
    )*};
}
eq_number!(u64 => as_u64 as u64, i64 => as_i64 as i64, f64 => as_f64 as f64);

impl Serialize for Value {
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        match self {
            Value::Null => out.put_null(),
            Value::Bool(v) => out.put_bool(*v),
            Value::Number(Number::PosInt(v)) => out.put_u64(*v),
            Value::Number(Number::NegInt(v)) => out.put_i64(*v),
            Value::Number(Number::Float(v)) => out.put_f64(*v),
            Value::String(v) => out.put_str(v),
            Value::Array(items) => items.serialize(out),
            Value::Object(map) => map.serialize(out),
        }
    }
}

/// A [`Serializer`] that builds a [`Value`] instead of text.
#[derive(Default)]
pub struct ValueBuilder {
    /// Open containers, innermost last, each with its pending map key.
    stack: Vec<(Value, Option<String>)>,
    key: Option<String>,
    done: Option<Value>,
}

impl ValueBuilder {
    /// The finished document; `null` if nothing was written.
    pub fn finish(self) -> Value {
        self.done.unwrap_or_default()
    }

    fn emit(&mut self, value: Value) {
        match self.stack.last_mut() {
            Some((Value::Array(items), _)) => items.push(value),
            Some((Value::Object(map), _)) => {
                let key = self.key.take().expect("map value without a key");
                map.insert(key, value);
            }
            _ => self.done = Some(value),
        }
    }

    fn open(&mut self, container: Value) {
        let key = self.key.take();
        self.stack.push((container, key));
    }

    fn close(&mut self) {
        let (container, key) = self.stack.pop().expect("unbalanced end");
        self.key = key;
        self.emit(container);
    }
}

impl Serializer for ValueBuilder {
    fn put_null(&mut self) {
        self.emit(Value::Null);
    }
    fn put_bool(&mut self, v: bool) {
        self.emit(Value::Bool(v));
    }
    fn put_u64(&mut self, v: u64) {
        self.emit(Value::Number(Number::PosInt(v)));
    }
    fn put_i64(&mut self, v: i64) {
        let number = if v < 0 {
            Number::NegInt(v)
        } else {
            Number::PosInt(v as u64)
        };
        self.emit(Value::Number(number));
    }
    fn put_f64(&mut self, v: f64) {
        // JSON has no NaN or infinity; serde_json writes them as null.
        self.emit(if v.is_finite() {
            Value::Number(Number::Float(v))
        } else {
            Value::Null
        });
    }
    fn put_str(&mut self, v: &str) {
        self.emit(Value::String(v.to_string()));
    }
    fn begin_seq(&mut self) {
        self.open(Value::Array(Vec::new()));
    }
    fn seq_item(&mut self) {}
    fn end_seq(&mut self) {
        self.close();
    }
    fn begin_map(&mut self) {
        self.open(Value::Object(Map::new()));
    }
    fn map_key(&mut self, key: &str) {
        self.key = Some(key.to_string());
    }
    fn end_map(&mut self) {
        self.close();
    }
}
