//! The JSON text writer: a [`Serializer`] that produces compact or pretty
//! text. It lives here rather than in `serde_json` so that [`Value`] can
//! implement `Display` with it.

use crate::{Serialize, Serializer, Value};
use std::fmt::{self, Write};

pub struct Writer {
    out: String,
    /// `None` writes compact text; `Some(depth)` writes pretty text.
    indent: Option<usize>,
    /// For each open container: whether it has an element yet.
    has_items: Vec<bool>,
}

impl Writer {
    pub fn compact() -> Self {
        Writer {
            out: String::with_capacity(256),
            indent: None,
            has_items: Vec::new(),
        }
    }

    pub fn pretty() -> Self {
        Writer {
            indent: Some(0),
            ..Writer::compact()
        }
    }

    pub fn into_string(self) -> String {
        self.out
    }

    fn newline(&mut self) {
        if let Some(depth) = self.indent {
            self.out.push('\n');
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.has_items.push(false);
        if let Some(depth) = &mut self.indent {
            *depth += 1;
        }
    }

    /// Separator and line break before the next element or entry.
    fn next_item(&mut self) {
        let has_items = self.has_items.last_mut().expect("item outside a container");
        if std::mem::replace(has_items, true) {
            self.out.push(',');
        }
        self.newline();
    }

    fn close(&mut self, bracket: char) {
        if let Some(depth) = &mut self.indent {
            *depth -= 1;
        }
        if self.has_items.pop().expect("unbalanced end") {
            self.newline();
        }
        self.out.push(bracket);
    }
}

impl Serializer for Writer {
    fn put_null(&mut self) {
        self.out.push_str("null");
    }

    fn put_bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn put_u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    fn put_i64(&mut self, v: i64) {
        let _ = write!(self.out, "{v}");
    }

    fn put_f64(&mut self, v: f64) {
        if v.is_finite() {
            // Shortest round-trip digits, always with a `.0` or an exponent.
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
    }

    fn put_str(&mut self, v: &str) {
        self.out.push('"');
        let mut clean_from = 0;
        for (i, byte) in v.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0x00..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&v[clean_from..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.out.push_str(escape);
            }
            clean_from = i + 1;
        }
        self.out.push_str(&v[clean_from..]);
        self.out.push('"');
    }

    fn begin_seq(&mut self) {
        self.open('[');
    }

    fn seq_item(&mut self) {
        self.next_item();
    }

    fn end_seq(&mut self) {
        self.close(']');
    }

    fn begin_map(&mut self) {
        self.open('{');
    }

    fn map_key(&mut self, key: &str) {
        self.next_item();
        self.put_str(key);
        self.out
            .push_str(if self.indent.is_some() { ": " } else { ":" });
    }

    fn end_map(&mut self) {
        self.close('}');
    }
}

/// Compact text, as serde_json's `Display for Value`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut writer = if f.alternate() {
            Writer::pretty()
        } else {
            Writer::compact()
        };
        self.serialize(&mut writer);
        f.write_str(&writer.out)
    }
}
