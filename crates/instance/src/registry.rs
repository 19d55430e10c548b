//! Action type registration (the paper's action deployment).
//!
//! Programmers "upload a package containing their definitions, which is
//! then provided to active storage servers; each action definition is
//! registered with a name" (§6.2). Rust has no runtime class loading, so
//! deployment is a compile-time registry mapping names to factories — the
//! deploy/instantiate/reference flow is otherwise identical (see
//! DESIGN.md §4 for this substitution).

use crate::action::Action;
use glider_proto::types::ActionSpec;
use glider_proto::{ErrorCode, GliderError, GliderResult};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A factory producing an action object from its creation spec.
pub type ActionFactory = Arc<dyn Fn(&ActionSpec) -> GliderResult<Arc<dyn Action>> + Send + Sync>;

/// Named action definitions available on an active server.
///
/// # Examples
///
/// ```
/// use glider_instance::{Action, ActionRegistry};
/// use glider_proto::types::ActionSpec;
///
/// #[derive(Default)]
/// struct Noop;
/// impl Action for Noop {}
///
/// let registry = ActionRegistry::new();
/// registry.register_default::<Noop>("noop");
/// let spec = ActionSpec::new("noop", false);
/// let _obj = registry.instantiate(&spec)?;
/// # Ok::<(), glider_proto::GliderError>(())
/// ```
pub struct ActionRegistry {
    factories: RwLock<HashMap<String, ActionFactory>>,
}

impl ActionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ActionRegistry {
            factories: RwLock::new(HashMap::new()),
        }
    }

    /// Creates a registry pre-loaded with the built-in action library
    /// (see [`crate::builtin`]).
    pub fn with_builtins() -> Self {
        let reg = ActionRegistry::new();
        crate::builtin::register_builtins(&reg);
        reg
    }

    /// Registers `factory` under `name`, replacing any previous
    /// registration (the paper allows re-deploying definitions).
    pub fn register(&self, name: impl Into<String>, factory: ActionFactory) {
        // No user code runs under the lock: a poisoned map is whole.
        self.factories
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.into(), factory);
    }

    /// Registers a `Default`-constructible action type under `name`.
    pub fn register_default<T: Action + Default>(&self, name: impl Into<String>) {
        self.register(
            name,
            Arc::new(|_spec| Ok(Arc::new(T::default()) as Arc<dyn Action>)),
        );
    }

    /// Instantiates an action object for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::UnknownActionType`] for unregistered names and
    /// propagates factory errors (e.g. missing parameters).
    pub fn instantiate(&self, spec: &ActionSpec) -> GliderResult<Arc<dyn Action>> {
        let factory = self
            .factories
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&spec.type_name)
            .cloned()
            .ok_or_else(|| {
                GliderError::new(
                    ErrorCode::UnknownActionType,
                    format!("action type {:?} is not registered", spec.type_name),
                )
            })?;
        factory(spec)
    }

    /// The registered type names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .factories
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

impl Default for ActionRegistry {
    fn default() -> Self {
        ActionRegistry::new()
    }
}

impl std::fmt::Debug for ActionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Noop;
    impl Action for Noop {}

    #[test]
    fn register_and_instantiate() {
        let reg = ActionRegistry::new();
        reg.register_default::<Noop>("noop");
        assert!(reg.instantiate(&ActionSpec::new("noop", false)).is_ok());
        let err = match reg.instantiate(&ActionSpec::new("missing", false)) {
            Err(e) => e,
            Ok(_) => panic!("expected unknown type"),
        };
        assert_eq!(err.code(), ErrorCode::UnknownActionType);
    }

    #[test]
    fn factory_errors_propagate() {
        let reg = ActionRegistry::new();
        reg.register(
            "needs-param",
            Arc::new(|spec: &ActionSpec| {
                spec.param("size")
                    .ok_or_else(|| GliderError::invalid("missing size param"))?;
                Ok(Arc::new(Noop) as Arc<dyn Action>)
            }),
        );
        assert!(reg
            .instantiate(&ActionSpec::new("needs-param", false))
            .is_err());
        assert!(reg
            .instantiate(&ActionSpec::new("needs-param", false).with_params("size=4"))
            .is_ok());
    }

    #[test]
    fn names_are_sorted_and_replace_works() {
        let reg = ActionRegistry::new();
        reg.register_default::<Noop>("b");
        reg.register_default::<Noop>("a");
        reg.register_default::<Noop>("b"); // replace
        assert_eq!(reg.names(), vec!["a", "b"]);
    }

    #[test]
    fn builtins_are_present() {
        let reg = ActionRegistry::with_builtins();
        let names = reg.names();
        for expected in ["null", "counter", "merge", "merge-ckpt", "filter", "sorter"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }
}
