//! A dynamically-typed document tree shared by the JSON and YAML parsers.

use std::collections::BTreeMap;
use std::fmt;

use marshal_trace::Json;

/// A parsed configuration value.
///
/// Objects keep key order-independent (sorted) storage so serialisation is
/// deterministic regardless of source ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array of values.
    Array(Vec<Value>),
    /// String-keyed object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Returns the string contents if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the elements if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the map if this is an `Object`.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` in an object, `None` for other kinds.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Serialises to compact JSON. Deterministic: object keys are sorted.
    pub fn to_json(&self) -> String {
        Json::from(self).encode()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v = Value::Object(BTreeMap::from([
            ("a".to_owned(), Value::Int(1)),
            ("b".to_owned(), Value::Str("x".to_owned())),
        ]));
        assert_eq!(v.get("a").and_then(Value::as_int), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.kind(), "object");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        let arr: Value = ["a", "b"].into_iter().collect();
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }
}
