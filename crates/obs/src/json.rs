//! The workspace's one JSON writer: exporters, the flight recorder and
//! `gsi-bench`'s experiment reports all emit through it.
//!
//! The workspace is hermetic (no serde). This writer tracks nesting and
//! comma placement so callers just emit keys and values; output is
//! deterministic, and compact (no whitespace) unless the buffer was
//! created with [`JsonBuf::indented`].

/// An append-only JSON buffer with automatic comma handling.
///
/// Objects/arrays are opened and closed explicitly; the buffer inserts the
/// separating commas. Emitting a bare value (no preceding [`JsonBuf::key`])
/// is valid inside arrays.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// Whether a value was already emitted at the current nesting level
    /// (drives comma insertion), one entry per open container.
    had_value: Vec<bool>,
    /// The value being emitted completes a `"key":` entry, so it takes no
    /// separator of its own.
    after_key: bool,
    /// Containers nested at most this deep put each entry on its own
    /// indented line; `0` = fully compact.
    indent_depth: usize,
}

impl JsonBuf {
    /// Fresh empty buffer (compact output).
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer that breaks the outermost `depth` container levels into
    /// one indented line per entry and keeps everything nested deeper
    /// compact — `indented(2)` renders an object of arrays with one array
    /// element per line, the shape committed reports are diffed in.
    pub fn indented(depth: usize) -> Self {
        Self {
            indent_depth: depth,
            ..Self::default()
        }
    }

    fn newline(&mut self, level: usize) {
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(level));
    }

    /// Insert the separator the next entry needs — a comma if the current
    /// container already holds a value, a line break inside the indented
    /// levels — and mark that the container now holds one.
    fn pre_value(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let level = self.had_value.len();
        if let Some(had) = self.had_value.last_mut() {
            if *had {
                self.out.push(',');
            }
            *had = true;
            if level <= self.indent_depth {
                self.newline(level);
            }
        }
    }

    fn end(&mut self, close: char) {
        let level = self.had_value.len();
        if self.had_value.pop() == Some(true) && level <= self.indent_depth {
            self.newline(level.saturating_sub(1));
        }
        self.out.push(close);
    }

    /// Open a JSON object (`{`).
    pub fn begin_obj(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.had_value.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.end('}');
    }

    /// Open a JSON array (`[`).
    pub fn begin_arr(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.had_value.push(false);
    }

    /// Close the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.end(']');
    }

    /// Emit `"key":` (inside an object); the next emitted value completes
    /// the entry without a separator of its own.
    pub fn key(&mut self, key: &str) {
        self.pre_value();
        self.push_escaped(key);
        self.out.push(':');
        if self.had_value.len() <= self.indent_depth {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Emit a string value.
    pub fn value_str(&mut self, v: &str) {
        self.pre_value();
        self.push_escaped(v);
    }

    /// Emit an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.pre_value();
        self.out.push_str(&v.to_string());
    }

    /// Emit a float value (`null` for non-finite floats — JSON has no
    /// NaN/inf literals).
    pub fn value_f64(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            self.out.push_str(&format_f64(v));
        } else {
            self.out.push_str("null");
        }
    }

    /// Emit a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emit a `null` value.
    pub fn value_null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }

    /// `"key":"value"` in one call.
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.value_str(v);
    }

    /// `"key":value` for an unsigned integer.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.value_u64(v);
    }

    /// `"key":value` for a float (`null` when non-finite).
    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.key(key);
        self.value_f64(v);
    }

    /// `"key":true|false`.
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.value_bool(v);
    }

    /// `"key":null`.
    pub fn field_null(&mut self, key: &str) {
        self.key(key);
        self.value_null();
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Consume the buffer, returning the JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Deterministic float formatting: Rust's shortest-roundtrip `{}` output,
/// which both exporters share so snapshots stay stable.
pub fn format_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_commas() {
        let mut b = JsonBuf::new();
        b.begin_obj();
        b.field_str("name", "a\"b");
        b.field_u64("n", 3);
        b.key("xs");
        b.begin_arr();
        b.value_u64(1);
        b.value_u64(2);
        b.begin_obj();
        b.field_bool("ok", true);
        b.end_obj();
        b.end_arr();
        b.field_f64("pi", 1.5);
        b.field_f64("bad", f64::NAN);
        b.field_null("gone");
        b.end_obj();
        assert_eq!(
            b.finish(),
            r#"{"name":"a\"b","n":3,"xs":[1,2,{"ok":true}],"pi":1.5,"bad":null,"gone":null}"#
        );
    }

    #[test]
    fn indented_breaks_outer_levels_only() {
        let mut b = JsonBuf::indented(2);
        b.begin_obj();
        b.field_str("name", "x");
        b.key("rows");
        b.begin_arr();
        for i in 0..2 {
            b.begin_obj();
            b.field_u64("i", i);
            b.key("xs");
            b.begin_arr();
            b.value_u64(1);
            b.end_arr();
            b.end_obj();
        }
        b.end_arr();
        b.key("none");
        b.begin_arr();
        b.end_arr();
        b.end_obj();
        assert_eq!(
            b.finish(),
            "{\n  \"name\": \"x\",\n  \"rows\": [\n    {\"i\":0,\"xs\":[1]},\n    \
             {\"i\":1,\"xs\":[1]}\n  ],\n  \"none\": []\n}"
        );
    }

    #[test]
    fn control_chars_escaped() {
        let mut b = JsonBuf::new();
        b.value_str("a\nb\u{1}");
        assert_eq!(b.finish(), "\"a\\nb\\u0001\"");
    }
}
