//! Root package: thin re-export of the soctam facade so integration
//! tests and examples can use one import path.
pub use soctam::*;
