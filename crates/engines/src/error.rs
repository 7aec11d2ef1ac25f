//! The unified search-error taxonomy.
//!
//! Every layer of the pipeline — guide validation, automata lowering,
//! genome ingestion, guide-file parsing, engine capacity checks, and the
//! fault-isolated parallel deployment — reports through one structured
//! [`SearchError`], so callers (the CLI, the service layer, the test
//! oracles) can branch on *what* failed and *where* instead of string
//! matching. Partial failures carry per-chunk provenance
//! ([`ChunkFailure`]): which contig, which byte range, how many attempts
//! were made, and what the final cause was.

use std::fmt;

/// Provenance of one chunk that exhausted its retry budget in the
/// parallel deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFailure {
    /// Index of the contig the chunk belongs to.
    pub contig: u32,
    /// Name of that contig (filled by the deployment, which holds the
    /// genome; empty when unknown).
    pub contig_name: String,
    /// Chunk start, in contig base coordinates.
    pub start: u64,
    /// Chunk length in bases (including the boundary overlap).
    pub len: u64,
    /// Scan attempts made (1 initial + retries) before giving up.
    pub attempts: u32,
    /// Human-readable cause of the final failure (panic payload or error
    /// display).
    pub cause: String,
}

impl fmt::Display for ChunkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contig {:?} (#{}) [{}..{}) after {} attempts: {}",
            self.contig_name,
            self.contig,
            self.start,
            self.start + self.len,
            self.attempts,
            self.cause
        )
    }
}

/// Unified error type for the whole search pipeline; see the module docs.
///
/// The historic name [`EngineError`](crate::EngineError) is kept as an
/// alias — engine code and downstream callers use the two
/// interchangeably.
#[derive(Debug)]
pub enum SearchError {
    /// Guide validation or compilation failed.
    Guide(crispr_guides::GuideError),
    /// An automata transformation failed (e.g. DFA budget exceeded).
    Automata(crispr_automata::AutomataError),
    /// Genome ingestion or sequence handling failed.
    Genome(crispr_genome::GenomeError),
    /// A guide file could not be parsed.
    GuideIo(crispr_guides::io::GuideIoError),
    /// The engine's configuration cannot handle the request.
    Unsupported(String),
    /// The parallel deployment completed, but some chunks failed every
    /// retry. The result is *partial*: every chunk not listed here was
    /// scanned successfully, and the recovered hits ride along so
    /// callers (the CLI, the serve layer) can still deliver them.
    Partial {
        /// The chunks that exhausted their retry budget, sorted by
        /// genome position.
        failures: Vec<ChunkFailure>,
        /// Total chunks the deployment enqueued.
        chunks_total: u64,
        /// The normalized hits recovered from the chunks that did
        /// succeed — the partial-results contract: an exit-code-3 run
        /// still delivers these, it never discards them.
        hits: Vec<crispr_guides::Hit>,
    },
    /// The search was tripped by a manual [`CancelToken`](crate::CancelToken)
    /// cancellation before every chunk was scanned. Like
    /// [`Partial`](SearchError::Partial), the hits recovered from the
    /// chunks that *did* complete ride along — a cancelled run never
    /// discards finished work.
    Cancelled {
        /// Chunks scanned to completion before the trip was observed.
        chunks_scanned: u64,
        /// Total chunks the run would have scanned.
        chunks_total: u64,
        /// Normalized hits from the completed chunks.
        hits: Vec<crispr_guides::Hit>,
    },
    /// The search's armed deadline passed before every chunk was
    /// scanned. Same recovered-hits contract as
    /// [`Cancelled`](SearchError::Cancelled).
    DeadlineExceeded {
        /// Chunks scanned to completion before the deadline tripped.
        chunks_scanned: u64,
        /// Total chunks the run would have scanned.
        chunks_total: u64,
        /// Normalized hits from the completed chunks.
        hits: Vec<crispr_guides::Hit>,
    },
}

impl SearchError {
    /// Whether this is a partial-result error: the pipeline survived, some
    /// chunks did not. Callers that can use incomplete hit sets branch on
    /// this (the CLI maps it to its own exit code).
    pub fn is_partial(&self) -> bool {
        matches!(self, SearchError::Partial { .. })
    }

    /// Whether this run was stopped by a [`CancelToken`](crate::CancelToken)
    /// (manual trip or deadline) rather than by a fault.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SearchError::Cancelled { .. } | SearchError::DeadlineExceeded { .. })
    }

    /// Consumes a cancellation error, returning `(hits, chunks_scanned,
    /// chunks_total, deadline)` where `deadline` is `true` for
    /// [`DeadlineExceeded`](SearchError::DeadlineExceeded); `Err(self)`
    /// unchanged for every other variant.
    #[allow(clippy::type_complexity)]
    pub fn into_cancelled(self) -> Result<(Vec<crispr_guides::Hit>, u64, u64, bool), SearchError> {
        match self {
            SearchError::Cancelled { hits, chunks_scanned, chunks_total } => {
                Ok((hits, chunks_scanned, chunks_total, false))
            }
            SearchError::DeadlineExceeded { hits, chunks_scanned, chunks_total } => {
                Ok((hits, chunks_scanned, chunks_total, true))
            }
            other => Err(other),
        }
    }
}

impl SearchError {
    /// Builds the cancellation variant matching a tripped
    /// [`CancelKind`](crate::CancelKind), attaching the hits recovered so
    /// far and chunk progress.
    pub fn from_cancel(
        kind: crate::CancelKind,
        hits: Vec<crispr_guides::Hit>,
        chunks_scanned: u64,
        chunks_total: u64,
    ) -> SearchError {
        match kind {
            crate::CancelKind::Cancelled => {
                SearchError::Cancelled { hits, chunks_scanned, chunks_total }
            }
            crate::CancelKind::DeadlineExceeded => {
                SearchError::DeadlineExceeded { hits, chunks_scanned, chunks_total }
            }
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Guide(e) => write!(f, "guide error: {e}"),
            SearchError::Automata(e) => write!(f, "automata error: {e}"),
            SearchError::Genome(e) => write!(f, "genome error: {e}"),
            SearchError::GuideIo(e) => write!(f, "guide file error: {e}"),
            SearchError::Unsupported(reason) => write!(f, "unsupported request: {reason}"),
            SearchError::Partial { failures, chunks_total, hits } => {
                write!(
                    f,
                    "partial result: {}/{} chunks failed after retries ({} hits recovered)",
                    failures.len(),
                    chunks_total,
                    hits.len()
                )?;
                for failure in failures {
                    write!(f, "\n  failed chunk: {failure}")?;
                }
                Ok(())
            }
            SearchError::Cancelled { chunks_scanned, chunks_total, hits } => write!(
                f,
                "cancelled after {chunks_scanned}/{chunks_total} chunks ({} hits recovered)",
                hits.len()
            ),
            SearchError::DeadlineExceeded { chunks_scanned, chunks_total, hits } => write!(
                f,
                "deadline exceeded after {chunks_scanned}/{chunks_total} chunks ({} hits recovered)",
                hits.len()
            ),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Guide(e) => Some(e),
            SearchError::Automata(e) => Some(e),
            SearchError::Genome(e) => Some(e),
            SearchError::GuideIo(e) => Some(e),
            SearchError::Unsupported(_)
            | SearchError::Partial { .. }
            | SearchError::Cancelled { .. }
            | SearchError::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<crispr_guides::GuideError> for SearchError {
    fn from(e: crispr_guides::GuideError) -> Self {
        SearchError::Guide(e)
    }
}

impl From<crispr_automata::AutomataError> for SearchError {
    fn from(e: crispr_automata::AutomataError) -> Self {
        SearchError::Automata(e)
    }
}

impl From<crispr_genome::GenomeError> for SearchError {
    fn from(e: crispr_genome::GenomeError) -> Self {
        SearchError::Genome(e)
    }
}

impl From<crispr_guides::io::GuideIoError> for SearchError {
    fn from(e: crispr_guides::io::GuideIoError) -> Self {
        SearchError::GuideIo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineError;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = EngineError::from(crispr_guides::GuideError::NoGuides);
        assert!(e.to_string().contains("guide error"));
        assert!(e.source().is_some());
        let u = EngineError::Unsupported("too big".into());
        assert!(u.to_string().contains("too big"));
        assert!(u.source().is_none());
        let g = SearchError::from(crispr_genome::GenomeError::UnknownContig("chrZ".into()));
        assert!(g.to_string().contains("chrZ"));
        assert!(g.source().is_some());
    }

    #[test]
    fn partial_errors_name_their_chunks() {
        let e = SearchError::Partial {
            failures: vec![ChunkFailure {
                contig: 2,
                contig_name: "chr3".into(),
                start: 1000,
                len: 512,
                attempts: 4,
                cause: "injected panic".into(),
            }],
            chunks_total: 16,
            hits: vec![
                crispr_guides::Hit {
                    contig: 0,
                    pos: 7,
                    guide: 0,
                    strand: crispr_genome::Strand::Forward,
                    mismatches: 1,
                };
                41
            ],
        };
        assert!(e.is_partial());
        let text = e.to_string();
        assert!(text.contains("1/16 chunks failed"), "{text}");
        assert!(text.contains("chr3") && text.contains("[1000..1512)"), "{text}");
        assert!(text.contains("4 attempts") && text.contains("injected panic"), "{text}");
        assert!(!SearchError::Unsupported("x".into()).is_partial());
    }
}
