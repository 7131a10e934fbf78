//! A minimal hand-rolled JSON emitter (the sandbox has no serde), just
//! enough for the engine's flat report shape: objects, arrays, strings,
//! numbers, booleans.

use std::fmt::Write as _;

/// Builds a JSON document as a string, tracking comma placement.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the current container already holds a value (per nesting
    /// level), so the writer knows when to emit a comma.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Starts an empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object as the next value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array as the next value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push(']');
        self
    }

    /// Emits an object key; the next call supplies its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.pre_value();
        self.string_raw(key);
        self.out.push(':');
        // The key's value must not get a comma before it.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Emits a string value.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.pre_value();
        self.string_raw(value);
        self
    }

    /// Emits an unsigned integer value.
    pub fn uint(&mut self, value: u64) -> &mut Self {
        self.pre_value();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write into a String is infallible"
        )]
        let _ = write!(self.out, "{value}");
        self
    }

    /// Emits a float value (JSON has no NaN/Inf; those become 0).
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.pre_value();
        if value.is_finite() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "fmt::Write into a String is infallible"
            )]
            let _ = write!(self.out, "{value:.6}");
        } else {
            self.out.push('0');
        }
        self
    }

    /// Emits a boolean value.
    pub fn boolean(&mut self, value: bool) -> &mut Self {
        self.pre_value();
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    fn string_raw(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "fmt::Write into a String is infallible"
                    )]
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Finishes the document.
    #[must_use]
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed JSON container");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("run \"x\"\n");
        w.key("jobs").uint(3);
        w.key("ok").boolean(true);
        w.key("items").begin_array();
        w.begin_object().key("i").uint(0).end_object();
        w.begin_object().key("i").uint(1).end_object();
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"name\":\"run \\\"x\\\"\\n\",\"jobs\":3,\"ok\":true,\
             \"items\":[{\"i\":0},{\"i\":1}]}"
        );
    }

    #[test]
    fn floats_are_finite() {
        let mut w = JsonWriter::new();
        w.begin_array().float(1.5).float(f64::NAN).end_array();
        assert_eq!(w.finish(), "[1.500000,0]");
    }
}
