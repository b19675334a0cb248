//! JSON workload specs: the workspace's one JSON codec,
//! [`marshal_trace::Json`], building [`Value`] trees and writing them.
//!
//! The codec accepts full RFC 8259 syntax plus two ergonomic extensions
//! FireMarshal users expect from hand-written configuration files: `//`
//! and `#` comments, and trailing commas in arrays/objects.

use marshal_trace::{parse_json, Json, JsonTree};

use crate::error::ConfigError;
use crate::value::Value;

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with line/column information for any
/// syntax error, including duplicate keys and trailing garbage after the
/// document.
///
/// ```rust
/// use marshal_config::json::parse;
/// let v = parse(r#"{ "name": "bench", "jobs": [1, 2, 3] }"#)?;
/// assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("bench"));
/// # Ok::<(), marshal_config::ConfigError>(())
/// ```
pub fn parse(text: &str) -> Result<Value, ConfigError> {
    parse_json(text).map_err(|e| ConfigError::parse(e.line, e.column, e.message))
}

/// Integer literals stay [`Value::Int`], exactly; objects are sorted.
impl JsonTree for Value {
    fn null() -> Self {
        Value::Null
    }
    fn bool(b: bool) -> Self {
        Value::Bool(b)
    }
    fn int(n: i64) -> Self {
        Value::Int(n)
    }
    fn float(n: f64) -> Self {
        Value::Float(n)
    }
    fn str(s: String) -> Self {
        Value::Str(s)
    }
    fn arr(items: Vec<Self>) -> Self {
        Value::Array(items)
    }
    fn obj(fields: Vec<(String, Self)>) -> Self {
        Value::Object(fields.into_iter().collect())
    }
}

impl From<&Value> for Json {
    fn from(value: &Value) -> Json {
        match value {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(n) => Json::Int(*n),
            Value::Float(n) => Json::Num(*n),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Array(items) => Json::Arr(items.iter().map(Json::from).collect()),
            Value::Object(map) => Json::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::from(v)))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_kind() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::Float(1.0).to_json(), "1.0");
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(Value::Int(i64::MAX).to_json(), "9223372036854775807");
    }

    #[test]
    fn errors_carry_position() {
        match parse("{\n  \"a\": }\n") {
            Err(ConfigError::Parse { line, column, .. }) => assert_eq!((line, column), (2, 8)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(r#"{"a":1,"a":2}"#),
            Err(ConfigError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(100)).is_ok());
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&"[".repeat(100_000)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(result);
    }
}
