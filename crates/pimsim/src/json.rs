//! The one JSON writer: the metrics report, `pimserve`'s `Stats` snapshot
//! and drain document, the Chrome trace and `BENCH_index.json` are all
//! written through [`Json`].
//!
//! Each container picks its [`Layout`]; an empty one is `{}` or `[]`
//! either way. Floats are [`sci`] for simulated quantities
//! ([`Json::f64`]) and fixed-decimal for wall-clock timings
//! ([`Json::fixed`]).

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces past the parent.
    Block,
    /// The whole container on one line: `{ "k": v }` or `[a, b]`.
    Inline,
}

/// A document under construction: an object member is `key(..)` then
/// one value, an array element a bare value.
pub struct Json {
    out: String,
    /// Open containers: layout, is-object, no member yet.
    open: Vec<(Layout, bool, bool)>,
    /// A key was just written, so the next value needs no separator.
    keyed: bool,
}

impl Json {
    /// The text of a document whose root object, laid out as a
    /// [`Layout::Block`], `body` fills; it ends with a newline.
    pub fn document(body: impl FnOnce(&mut Json)) -> String {
        let mut json = Json {
            out: String::new(),
            open: Vec::new(),
            keyed: false,
        };
        json.object(Layout::Block, body);
        json.out + "\n"
    }

    /// Starts an object member; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Json {
        self.str(key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Json)) {
        self.container(('{', '}'), layout, true, body);
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Json)) {
        self.container(('[', ']'), layout, false, body);
    }

    /// One `"key": n` member per pair.
    pub fn u64_fields(&mut self, fields: &[(&str, u64)]) {
        for &(key, v) in fields {
            self.key(key).u64(v);
        }
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_string());
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.raw(if v { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// A float in the [`sci`] format.
    pub fn f64(&mut self, v: f64) {
        self.raw(&sci(v));
    }

    /// A float with `decimals` digits after the point.
    pub fn fixed(&mut self, v: f64, decimals: usize) {
        self.raw(&format!("{v:.decimals$}"));
    }

    /// A string, escaped per RFC 8259.
    pub fn str(&mut self, s: &str) {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => self.out.extend(['\\', c]),
                c if c < ' ' => self.out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn raw(&mut self, text: &str) {
        self.separate();
        self.out.push_str(text);
    }

    /// What goes before a member: nothing after its key; else a comma
    /// unless it is the first, then the container's line break or space.
    fn separate(&mut self) {
        let depth = self.open.len();
        match self.open.last_mut() {
            Some(_) if std::mem::take(&mut self.keyed) => {}
            Some((layout, object, empty)) => {
                let first = std::mem::take(empty);
                if !first {
                    self.out.push(',');
                }
                match layout {
                    Layout::Block => self.out.extend(indent(depth)),
                    Layout::Inline if !first || *object => self.out.push(' '),
                    Layout::Inline => {}
                }
            }
            None => {}
        }
    }

    fn container(
        &mut self,
        (opening, closing): (char, char),
        layout: Layout,
        object: bool,
        body: impl FnOnce(&mut Json),
    ) {
        self.separate();
        self.out.push(opening);
        self.open.push((layout, object, true));
        body(self);
        let (layout, object, empty) = self.open.pop().expect("container is open");
        match layout {
            _ if empty => {}
            Layout::Block => self.out.extend(indent(self.open.len())),
            Layout::Inline if object => self.out.push(' '),
            Layout::Inline => {}
        }
        self.out.push(closing);
    }
}

/// A line break and `depth` levels of two-space indentation.
fn indent(depth: usize) -> impl Iterator<Item = char> {
    std::iter::once('\n').chain(std::iter::repeat_n(' ', 2 * depth))
}

/// The float format of the simulated quantities: scientific with six
/// decimals, `0.0` for zero (finite values only).
pub fn sci(x: f64) -> String {
    debug_assert!(x.is_finite(), "JSON requires finite floats");
    if x == 0.0 {
        "0.0".to_owned()
    } else {
        format!("{x:.6e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_nest_escape_and_collapse_when_empty() {
        let text = Json::document(|w| {
            w.key("row").object(Layout::Inline, |w| {
                w.key("x\"").f64(1234.5);
                w.key("v")
                    .array(Layout::Inline, |w| (2..4).for_each(|n| w.u64(n)));
            });
            w.key("rows").array(Layout::Block, |w| {
                w.object(Layout::Inline, |w| w.key("t").fixed(2.0, 3));
                w.str("a\\b\n\u{1}é");
            });
            w.key("none").array(Layout::Block, |_| {});
            w.key("flag").bool(false);
        });
        let expected = "{\n  \"row\": { \"x\\\"\": 1.234500e3, \"v\": [2, 3] },\n  \"rows\": \
                        [\n    { \"t\": 2.000 },\n    \"a\\\\b\\u000a\\u0001é\"\n  ],\n  \
                        \"none\": [],\n  \"flag\": false\n}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn sci_floats_are_deterministic() {
        assert_eq!(sci(0.0), "0.0");
        assert_eq!(sci(1234.5), "1.234500e3");
        assert_eq!(sci(-0.25), "-2.500000e-1");
    }
}
