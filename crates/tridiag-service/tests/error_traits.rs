//! Every public error type in the workspace is a real
//! [`std::error::Error`]: boxable as `Box<dyn Error>`, displayable,
//! and round-trippable through `?` in plain-`Result` application code.
//! A typed error that cannot cross an API boundary as `dyn Error` is a
//! usability bug, not a style nit.

use std::error::Error;

use gpu_sim::SimError;
use tridiag_core::TridiagError;
use tridiag_service::ServiceError;

fn boxed(e: impl Error + 'static) -> Box<dyn Error> {
    Box::new(e)
}

#[test]
fn workspace_errors_box_as_dyn_error() {
    let cases: Vec<Box<dyn Error>> = vec![
        boxed(SimError::InvalidPlan("step 3: use-before-def".into())),
        boxed(SimError::InvalidLaunch("zero blocks".into())),
        boxed(TridiagError::EmptySystem),
        boxed(TridiagError::ZeroPivot { row: 7 }),
        boxed(ServiceError::Overloaded { depth: 16 }),
        boxed(ServiceError::ShuttingDown),
        boxed(ServiceError::Solve("kernel fault".into())),
    ];
    for e in &cases {
        // Display must be non-empty and stable enough to embed in
        // messages (`{e}` is how callers surface these).
        assert!(!e.to_string().is_empty());
    }
}

/// The `?` operator lifts each typed error into `Box<dyn Error>` — the
/// shape downstream binaries use.
#[test]
fn question_mark_lifts_into_dyn_error() {
    fn sim() -> Result<(), SimError> {
        Err(SimError::InvalidPlan(
            "peak resident exceeds global memory".into(),
        ))
    }
    fn app() -> Result<(), Box<dyn Error>> {
        sim()?;
        Ok(())
    }
    let err = app().unwrap_err();
    assert!(err.to_string().contains("peak resident"));
}
