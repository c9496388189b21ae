//! Services: named, shared function sets.
//!
//! The Streams framework allows the specification of *services* — sets of
//! functions accessible throughout the stream processing application. The
//! traffic-modelling component of the paper, for instance, is wrapped as a
//! Streams service that any processor can call to obtain congestion
//! estimates.
//!
//! Services are registered under a name and retrieved by downcasting, so a
//! processor asks for exactly the concrete service type it expects.

use crate::error::StreamsError;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Marker trait for service implementations.
///
/// Services are shared across process threads, hence `Send + Sync`.
pub trait Service: Send + Sync + 'static {}

/// A registry of named services, shared by all processes of a topology.
#[derive(Clone, Default)]
pub struct ServiceRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<dyn Any + Send + Sync>>>>,
}

impl ServiceRegistry {
    /// Registers an already shared service.
    pub fn register_arc<S: Service>(&self, name: &str, service: Arc<S>) {
        self.inner.write().unwrap().insert(name.to_string(), service);
    }

    /// Retrieves the service registered under `name` as concrete type `S`.
    pub fn get<S: Service>(&self, name: &str) -> Result<Arc<S>, StreamsError> {
        let service = {
            let guard = self.inner.read().unwrap();
            Arc::clone(guard.get(name).ok_or_else(|| StreamsError::ServiceError {
                detail: format!("no service registered under `{name}`"),
            })?)
        };
        service.downcast::<S>().map_err(|_| StreamsError::ServiceError {
            detail: format!("service `{name}` has a different concrete type"),
        })
    }

    /// Names of all registered services, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }

    /// Whether a service is registered under `name`.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.inner.read().unwrap().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Adder {
        offset: i64,
    }
    impl Adder {
        fn add(&self, x: i64) -> i64 {
            x + self.offset
        }
    }
    impl Service for Adder {}

    struct Other;
    impl Service for Other {}

    #[test]
    fn register_and_typed_get() {
        let reg = ServiceRegistry::default();
        reg.register_arc("adder", Arc::new(Adder { offset: 10 }));
        let svc = reg.get::<Adder>("adder").unwrap();
        assert_eq!(svc.add(5), 15);
    }

    #[test]
    fn missing_service() {
        let reg = ServiceRegistry::default();
        assert!(reg.get::<Adder>("nope").is_err());
    }

    #[test]
    fn wrong_type_is_error() {
        let reg = ServiceRegistry::default();
        reg.register_arc("svc", Arc::new(Other));
        assert!(reg.get::<Adder>("svc").is_err());
    }

    #[test]
    fn shared_across_clones_and_arc_registration() {
        let reg = ServiceRegistry::default();
        let reg2 = reg.clone();
        let adder = Arc::new(Adder { offset: 1 });
        reg.register_arc("adder", Arc::clone(&adder));
        assert!(reg2.contains("adder"));
        assert_eq!(reg2.names(), vec!["adder".to_string()]);
        assert_eq!(reg2.get::<Adder>("adder").unwrap().add(1), 2);
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServiceRegistry>();
    }
}
