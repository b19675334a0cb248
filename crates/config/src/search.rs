//! `$PATH`-style workload lookup.
//!
//! FireMarshal locates workloads "with a search order similar to the `$PATH`
//! variable in a Unix shell" (§III-B). A [`SearchPath`] layers built-in
//! workloads (registered by the board/base provider, e.g.
//! `marshal-workloads`) under user directories; directories are searched in
//! the order they were added, and built-ins are consulted last.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::error::ConfigError;

/// Where a workload file was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Located {
    /// A file on disk.
    File(PathBuf),
    /// A built-in registered via [`SearchPath::add_builtin`].
    Builtin(String),
}

/// An ordered set of workload sources.
///
/// ```rust
/// use marshal_config::SearchPath;
/// let mut sp = SearchPath::new();
/// sp.add_builtin("br-base.json", r#"{"name":"br-base","distro":"buildroot"}"#);
/// assert!(sp.locate("br-base.json").is_some());
/// assert!(sp.locate("missing.json").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchPath {
    dirs: Vec<PathBuf>,
    builtins: BTreeMap<String, String>,
}

impl SearchPath {
    /// Creates an empty search path.
    pub fn new() -> SearchPath {
        SearchPath::default()
    }

    /// Appends a directory to search (earlier directories win).
    pub fn add_dir(&mut self, dir: impl Into<PathBuf>) -> &mut SearchPath {
        self.dirs.push(dir.into());
        self
    }

    /// Registers a built-in workload document under `name`.
    ///
    /// Built-ins lose to any same-named file found in a directory, mirroring
    /// how FireMarshal lets users shadow standard workloads.
    pub fn add_builtin(
        &mut self,
        name: impl Into<String>,
        text: impl Into<String>,
    ) -> &mut SearchPath {
        self.builtins.insert(name.into(), text.into());
        self
    }

    /// The registered directories, in search order.
    pub fn dirs(&self) -> &[PathBuf] {
        &self.dirs
    }

    /// Finds `name` on the search path.
    ///
    /// Absolute paths and paths that exist relative to the current directory
    /// are honoured directly; otherwise each registered directory is tried in
    /// order, then the built-ins. For convenience a name without extension
    /// also tries `.json`, `.yaml`, and `.yml`.
    pub fn locate(&self, name: &str) -> Option<Located> {
        let p = Path::new(name);
        if p.is_absolute() && p.exists() {
            return Some(Located::File(p.to_owned()));
        }
        let candidates = candidate_names(name);
        for dir in &self.dirs {
            for c in &candidates {
                let full = dir.join(c);
                if full.exists() {
                    return Some(Located::File(full));
                }
            }
        }
        for c in &candidates {
            if self.builtins.contains_key(c) {
                return Some(Located::Builtin(c.clone()));
            }
        }
        if p.exists() {
            return Some(Located::File(p.to_owned()));
        }
        None
    }

    /// Loads the text of workload `name`.
    ///
    /// Returns `(canonical_name, text)` where the canonical name preserves
    /// the resolved file name (used for format detection and error messages).
    ///
    /// # Errors
    ///
    /// [`ConfigError::NotFound`] when the name cannot be located, or
    /// [`ConfigError::Io`] on read failure.
    pub fn load(&self, name: &str) -> Result<(String, String), ConfigError> {
        match self.locate(name) {
            Some(Located::File(path)) => {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| ConfigError::Io(format!("read {}: {e}", path.display())))?;
                Ok((path.to_string_lossy().into_owned(), text))
            }
            Some(Located::Builtin(key)) => Ok((key.clone(), self.builtins[&key].clone())),
            None => Err(ConfigError::NotFound(name.to_owned())),
        }
    }
}

fn candidate_names(name: &str) -> Vec<String> {
    if name.ends_with(".json") || name.ends_with(".yaml") || name.ends_with(".yml") {
        vec![name.to_owned()]
    } else {
        vec![
            name.to_owned(),
            format!("{name}.json"),
            format!("{name}.yaml"),
            format!("{name}.yml"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn builtin_lookup_and_extension_probing() {
        let mut sp = SearchPath::new();
        sp.add_builtin("base.json", "{}");
        assert_eq!(
            sp.locate("base.json"),
            Some(Located::Builtin("base.json".into()))
        );
        assert_eq!(
            sp.locate("base"),
            Some(Located::Builtin("base.json".into()))
        );
        assert_eq!(sp.locate("nope"), None);
    }

    #[test]
    fn files_shadow_builtins() {
        let dir = scratch_dir("shadow");
        std::fs::write(dir.join("w.json"), r#"{"name":"from-file"}"#).unwrap();
        let mut sp = SearchPath::new();
        sp.add_builtin("w.json", r#"{"name":"from-builtin"}"#);
        sp.add_dir(&dir);
        let (origin, text) = sp.load("w.json").unwrap();
        assert!(origin.contains("w.json"));
        assert!(text.contains("from-file"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn dir_order_matters() {
        let d1 = scratch_dir("order1");
        let d2 = scratch_dir("order2");
        std::fs::write(d1.join("w.json"), r#"{"name":"one"}"#).unwrap();
        std::fs::write(d2.join("w.json"), r#"{"name":"two"}"#).unwrap();
        let mut sp = SearchPath::new();
        sp.add_dir(&d1).add_dir(&d2);
        let (_, text) = sp.load("w.json").unwrap();
        assert!(text.contains("one"));
        std::fs::remove_dir_all(d1).unwrap();
        std::fs::remove_dir_all(d2).unwrap();
    }

    #[test]
    fn missing_is_not_found() {
        let sp = SearchPath::new();
        assert!(matches!(
            sp.load("ghost.json"),
            Err(ConfigError::NotFound(_))
        ));
    }
}
