//! Shared sharding math and the one fan-out for the deterministic engines
//! ([`study`](crate::study) and [`fleetsim`](crate::fleetsim)).
//!
//! Both engines split a work-index space into contiguous per-worker spans,
//! run each span through [`fan_out`], and merge results back in index
//! order — the byte-identical-across-`--threads N` guarantee rests on this
//! arithmetic, so there is exactly one copy of it.

use std::thread;

/// Most worker threads a request may name. `--threads` is outside input,
/// and the engines spawn their workers afresh on every epoch, so an
/// unbounded count is an unbounded spawn.
pub(crate) const MAX_THREADS: usize = 1024;

/// Rejects a requested thread count above [`MAX_THREADS`]; the error names
/// the `--threads` flag.
pub(crate) fn validate_threads(requested: usize) -> Result<(), String> {
    if requested > MAX_THREADS {
        return Err(format!(
            "--threads wants at most {MAX_THREADS} workers (0 = all cores), got {requested}"
        ));
    }
    Ok(())
}

/// Resolves a requested thread count: `0` means the machine's available
/// parallelism; the result is clamped to `[1, work_items]` (no point
/// spawning idle workers).
pub(crate) fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let requested = if requested == 0 {
        thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        requested
    };
    requested.clamp(1, work_items.max(1))
}

/// Per-worker contiguous chunk length for `total` work items over at most
/// `workers` workers. `slice.chunks(chunk_size(..))` and
/// [`shard_spans`] cut on identical boundaries.
pub(crate) fn chunk_size(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1)).max(1)
}

/// Splits `total` work items into at most `workers` contiguous spans.
pub(crate) fn shard_spans(total: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk_size(total, workers);
    (0..total)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(total))
        .collect()
}

/// Runs `work` once per shard and returns the results in shard order —
/// never completion order. A single shard runs inline on the calling thread
/// and collects nothing: a one-worker run spawns nothing and, when `R` is
/// `()`, allocates nothing. Several shards run on one scoped thread each.
/// A worker's panic resumes on the calling thread.
pub(crate) fn fan_out<I, R, F>(shards: I, work: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let mut shards = shards.into_iter();
    let Some(first) = shards.next() else {
        return Vec::new();
    };
    let Some(second) = shards.next() else {
        return vec![work(first)];
    };
    thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = [first, second]
            .into_iter()
            .chain(shards)
            .map(|shard| s.spawn(move || work(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_returns_results_in_shard_order() {
        for shards in [1usize, 2, 7] {
            let caller = thread::current().id();
            let results = fan_out(0..shards, |i| (i * i, thread::current().id()));
            let squares: Vec<usize> = results.iter().map(|&(sq, _)| sq).collect();
            let expected: Vec<usize> = (0..shards).map(|i| i * i).collect();
            assert_eq!(squares, expected, "shards={shards}");
            let inline = results.iter().all(|&(_, id)| id == caller);
            // One shard runs on the caller; several never do.
            assert_eq!(inline, shards == 1, "shards={shards}");
        }
        assert!(fan_out(0..0, |i: usize| i).is_empty());
    }

    #[test]
    fn fan_out_lends_mutable_shards() {
        let mut totals = vec![0u64; 3];
        let sums = fan_out(totals.iter_mut().zip([1u64, 2, 3]), |(total, k)| {
            *total += k * 10;
            *total
        });
        assert_eq!(sums, vec![10, 20, 30]);
        assert_eq!(totals, vec![10, 20, 30]);
    }

    #[test]
    fn shard_spans_cover_everything_exactly_once() {
        for total in [0usize, 1, 5, 12, 100] {
            for workers in [1usize, 2, 3, 7, 16] {
                let spans = shard_spans(total, workers);
                let mut covered = 0;
                let mut expected_start = 0;
                for span in &spans {
                    assert_eq!(span.start, expected_start, "spans must be contiguous");
                    covered += span.len();
                    expected_start = span.end;
                }
                assert_eq!(covered, total, "total={total} workers={workers}");
                assert!(spans.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn chunks_match_span_boundaries() {
        for total in [1usize, 5, 12, 100] {
            for workers in [1usize, 2, 3, 7, 16] {
                let chunk = chunk_size(total, workers);
                let items: Vec<usize> = (0..total).collect();
                let spans = shard_spans(total, workers);
                assert_eq!(items.chunks(chunk).count(), spans.len());
                for (c, span) in items.chunks(chunk).zip(&spans) {
                    assert_eq!(c.len(), span.len(), "total={total} workers={workers}");
                    assert_eq!(c[0], span.start);
                }
            }
        }
    }

    #[test]
    fn resolve_threads_clamps_to_work() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 100), 2);
        assert_eq!(resolve_threads(5, 0), 1);
        assert!(resolve_threads(0, 64) >= 1);
    }
}
