//! Fixture: event-exhaustiveness — unregistered and kind-mismatched events.

use ghosts_obs::Scope;

pub fn emit(scope: &Scope) {
    scope.event("spoof_filter", &[]);
    scope.event("bogus_event", &[]);
    scope.error("fit", &[]);
    // lint: allow(event-exhaustiveness) experimental event, registry entry pending
    scope.event("prototype_event", &[]);
}
