//! Shared building blocks for the strict "collect all findings" JSON
//! validators (`tridiag.solve_plan/v3`, `tridiag.sharded_plan/v3`,
//! `tridiag.distributed_plan/v1`, `tridiag.metrics/v1`,
//! `tridiag.events/v1`, `tridiag.bench_history/v1`, Chrome traces).
//!
//! Every validator in the workspace follows the same shape: walk a
//! parsed [`Json`] document, push a human-readable problem string for
//! every violation, return the full list (empty = valid). [`Check`]
//! centralizes the field-shape half of that work — presence, type,
//! integer-ness, enum membership — so each validator is left with only
//! its domain invariants (partition coverage, counter cross-sums,
//! span/total equalities).

use super::Json;

/// A field-shape checker over one JSON object, accumulating problems.
///
/// `ctx` is prefixed to every problem (e.g. `"shards[3] "`), matching
/// the attribution style the hand-rolled validators used. Accessors
/// return `Some(value)` only when the field exists *and* has the right
/// shape; otherwise they record a problem and return `None`, letting
/// callers chain domain checks on the happy path.
pub struct Check<'a> {
    doc: &'a Json,
    ctx: String,
    problems: Vec<String>,
}

impl<'a> Check<'a> {
    /// Checker over `doc` with no context prefix.
    pub fn new(doc: &'a Json) -> Check<'a> {
        Check::with_ctx(doc, "")
    }

    /// Checker over `doc`, prefixing every problem with `ctx`.
    pub fn with_ctx(doc: &'a Json, ctx: impl Into<String>) -> Check<'a> {
        Check {
            doc,
            ctx: ctx.into(),
            problems: Vec::new(),
        }
    }

    /// The document under inspection.
    pub fn doc(&self) -> &'a Json {
        self.doc
    }

    /// Record a problem (context prefix applied).
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(format!("{}{}", self.ctx, msg.into()));
    }

    /// Record `msg` unless `ok` holds.
    pub fn ensure(&mut self, ok: bool, msg: impl Into<String>) {
        if !ok {
            self.problem(msg);
        }
    }

    /// Require `doc.schema == expected`.
    pub fn schema(&mut self, expected: &str) -> &mut Self {
        match self.doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == expected => {}
            Some(other) => self.problem(format!("schema is {other:?}, expected {expected:?}")),
            None => self.problem("missing string field \"schema\"".to_string()),
        }
        self
    }

    /// Require a string field.
    pub fn req_str(&mut self, key: &str) -> Option<&'a str> {
        match self.doc.get(key).and_then(Json::as_str) {
            Some(s) => Some(s),
            None => {
                self.problem(format!("missing string field {key:?}"));
                None
            }
        }
    }

    /// Require several string fields at once (values discarded).
    pub fn req_strs(&mut self, keys: &[&str]) {
        for key in keys {
            self.req_str(key);
        }
    }

    /// Require a string field drawn from `allowed`. The problem message
    /// names the offending value and the allowed set.
    pub fn str_enum(&mut self, key: &str, allowed: &[&str]) -> Option<&'a str> {
        match self.doc.get(key).and_then(Json::as_str) {
            Some(s) if allowed.contains(&s) => Some(s),
            Some(other) => {
                let list = allowed
                    .iter()
                    .map(|a| format!("{a:?}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                self.problem(format!(
                    "field {key:?} is {other:?}, expected one of {list}"
                ));
                None
            }
            None => {
                self.problem(format!("missing string field {key:?}"));
                None
            }
        }
    }

    /// Require a numeric field.
    pub fn req_num(&mut self, key: &str) -> Option<f64> {
        match self.doc.get(key).and_then(Json::as_num) {
            Some(v) => Some(v),
            None => {
                self.problem(format!("missing numeric field {key:?}"));
                None
            }
        }
    }

    /// Require a non-negative integer-valued number.
    pub fn req_uint(&mut self, key: &str) -> Option<u64> {
        match self.doc.get(key).and_then(Json::as_num) {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            Some(v) => {
                self.problem(format!("field {key:?} is not a non-negative integer: {v}"));
                None
            }
            None => {
                self.problem(format!("missing numeric field {key:?}"));
                None
            }
        }
    }

    /// Require several non-negative integer fields at once.
    pub fn req_uints(&mut self, keys: &[&str]) {
        for key in keys {
            self.req_uint(key);
        }
    }

    /// Require a finite number `>= min`.
    pub fn num_ge(&mut self, key: &str, min: f64) -> Option<f64> {
        match self.doc.get(key).and_then(Json::as_num) {
            Some(v) if v.is_finite() && v >= min => Some(v),
            Some(v) => {
                self.problem(format!(
                    "field {key:?} must be a finite number >= {min}, got {v}"
                ));
                None
            }
            None => {
                self.problem(format!("missing numeric field {key:?}"));
                None
            }
        }
    }

    /// Require a boolean field.
    pub fn req_bool(&mut self, key: &str) -> Option<bool> {
        match self.doc.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => {
                self.problem(format!("missing boolean field {key:?}"));
                None
            }
        }
    }

    /// Require an array field; a missing or non-array field records a
    /// problem and yields an empty slice so iteration still type-checks.
    pub fn req_arr(&mut self, key: &str) -> &'a [Json] {
        match self.doc.get(key).and_then(Json::as_arr) {
            Some(items) => items,
            None => {
                self.problem(format!("missing array field {key:?}"));
                &[]
            }
        }
    }

    /// Require an object field.
    pub fn req_obj(&mut self, key: &str) -> Option<&'a Json> {
        match self.doc.get(key) {
            Some(obj @ Json::Obj(_)) => Some(obj),
            _ => {
                self.problem(format!("missing object field {key:?}"));
                None
            }
        }
    }

    /// Child checker over `doc` with `ctx` appended to this checker's
    /// prefix; fold it back in with [`Check::absorb`].
    pub fn child(&self, doc: &'a Json, ctx: impl Into<String>) -> Check<'a> {
        Check::with_ctx(doc, format!("{}{}", self.ctx, ctx.into()))
    }

    /// Merge a child checker's problems (already prefixed) into this one.
    pub fn absorb(&mut self, child: Check<'a>) {
        self.problems.extend(child.problems);
    }

    /// Merge externally produced problems, applying a context prefix.
    pub fn absorb_with(&mut self, prefix: &str, problems: Vec<String>) {
        for p in problems {
            self.problems.push(format!("{}{prefix}{p}", self.ctx));
        }
    }

    /// `true` when no problems were recorded so far.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }

    /// Consume the checker, returning every problem found.
    pub fn finish(self) -> Vec<String> {
        self.problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn clean_document_yields_no_problems() {
        let doc = parse(r#"{"schema":"x/v1","name":"a","count":3,"on":true,"items":[1]}"#).unwrap();
        let mut c = Check::new(&doc);
        c.schema("x/v1");
        assert_eq!(c.req_str("name"), Some("a"));
        assert_eq!(c.req_uint("count"), Some(3));
        assert_eq!(c.req_bool("on"), Some(true));
        assert_eq!(c.req_arr("items").len(), 1);
        assert!(c.finish().is_empty());
    }

    #[test]
    fn every_shape_violation_is_collected() {
        let doc = parse(r#"{"schema":"y/v1","count":-1,"kind":"zebra"}"#).unwrap();
        let mut c = Check::new(&doc);
        c.schema("x/v1");
        c.req_str("name");
        c.req_uint("count");
        c.str_enum("kind", &["horse", "donkey"]);
        c.req_bool("on");
        c.req_arr("items");
        c.req_obj("meta");
        c.num_ge("count", 0.0);
        let problems = c.finish();
        assert_eq!(problems.len(), 8, "{problems:?}");
        assert!(problems[0].contains("expected \"x/v1\""));
        assert!(problems.iter().any(|p| p.contains("\"kind\" is \"zebra\"")));
    }

    #[test]
    fn context_prefixes_compose_through_children() {
        let doc = parse(r#"{"shards":[{"n":"oops"}]}"#).unwrap();
        let mut c = Check::new(&doc);
        let shards = c.req_arr("shards");
        for (i, sh) in shards.iter().enumerate() {
            let mut child = c.child(sh, format!("shards[{i}] "));
            child.req_uint("n");
            c.absorb(child);
        }
        let problems = c.finish();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("shards[0] "), "{problems:?}");
    }

    #[test]
    fn absorb_with_prefixes_nested_validator_output() {
        let doc = parse("{}").unwrap();
        let mut c = Check::new(&doc);
        c.absorb_with("reference: ", vec!["missing field \"x\"".into()]);
        assert_eq!(c.finish(), vec!["reference: missing field \"x\""]);
    }
}
