//! The serving layer: a resident daemon that loads a genome once and
//! answers concurrent off-target queries over HTTP/1.1.
//!
//! The batch CLI pays the genome load and guide compile on every
//! invocation; a screening service asking many small questions about one
//! reference pays them once here instead. Three pieces make that work:
//!
//! - a hand-rolled HTTP/1.1 front end on [`std::net`] (no external
//!   dependencies — the build environment has no registry access), one
//!   connection per request, `Connection: close`;
//! - a bounded worker pool pulling accepted connections off a channel,
//!   so a slow scan delays other queries instead of crashing them;
//! - an LRU cache of compiled [`crispr_engines::PreparedSearch`] values
//!   keyed by (guide-set hash, mismatch budget, engine), so repeated
//!   queries skip the compile phase entirely and go straight to
//!   [`crispr_engines::run_scan`] — over the in-memory genome, or over
//!   an on-disk index scanned in place.
//!
//! The partial-results contract carries through to the wire: a scan in
//! which some chunks exhausted their retries answers `206 Partial
//! Content` with an `X-Offtarget-Partial: failed/total` header and the
//! recovered hits in the body — the HTTP spelling of the CLI's exit
//! code 3.
//!
//! ```no_run
//! use crispr_genome::synth::SynthSpec;
//! use crispr_serve::{ServeConfig, Server};
//!
//! let genome = SynthSpec::new(100_000).seed(1).generate();
//! let server = Server::start(genome, ServeConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.join(); // runs until POST /shutdown
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! | Endpoint | Method | Answer |
//! |---|---|---|
//! | `/search` | POST | hits for the guide list in the body (TSV or JSON) |
//! | `/metrics` | GET | aggregated Prometheus text, plus `offtarget_serve_*` series and sliding-window SLO gauges |
//! | `/healthz` | GET | liveness JSON (genome size, cache occupancy, 1-minute SLO summary) |
//! | `/debug/requests` | GET | the live request table plus recent completions |
//! | `/shutdown` | POST | graceful drain: stop accepting, finish in-flight scans |
//!
//! Every request carries an identity: the daemon assigns (or adopts
//! from `X-Offtarget-Request-Id`) a per-request id, echoes it on every
//! response, stamps it on the request's trace spans and failpoint
//! instants, and — when `--access-log` is set — emits one JSON-lines
//! access-log record per request. See the `obs` module.

#![warn(missing_docs)]

mod cache;
mod http;
mod obs;
mod server;

pub use obs::ObsConfig;
pub use server::{parse_engine, ServeConfig, Server};
