//! The one parallel loop of the engines: run `f` over an index range or
//! over the chunks of a slice on up to [`width`] threads.
//!
//! A loop cuts its work into `min(width, len)` contiguous pieces. The
//! calling thread takes the first, scoped threads are started for the
//! rest, and every thread then takes whatever piece is left until none
//! is. A thread the OS refuses to start (a `ulimit -v` too small for
//! its stack, a pid limit) leaves its piece to the threads that did
//! start, the calling thread among them: a refusal costs time, never a
//! result, because what a piece computes never depends on the thread
//! that runs it.

use std::ops::Range;
use std::sync::Mutex;

/// How many threads a loop fans out to: one when `parallel` is off,
/// else the width of the enclosing `rayon::ThreadPool::install` scope —
/// the machine's parallelism outside one.
pub(crate) fn width(parallel: bool) -> usize {
    if parallel {
        rayon::current_num_threads()
    } else {
        1
    }
}

/// Runs `f(i)` for every `i` in `0..len` on up to `width` threads.
pub(crate) fn for_each(width: usize, len: usize, f: impl Fn(usize) + Sync) {
    run(pieces(width, len), |r| r.for_each(&f));
}

/// Runs `f(i, c)` for every `chunk`-long piece `c` of `data` (the last
/// may be shorter), `i` its position, on up to `width` threads.
pub(crate) fn for_each_chunk<T: Send>(
    width: usize,
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let ranges = pieces(width, data.len().div_ceil(chunk));
    let mut rest = data;
    let slices = ranges.map(move |r| {
        let at = (r.len() * chunk).min(rest.len());
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(at);
        rest = tail;
        (r.start, head)
    });
    run(slices, |(first, piece)| {
        for (i, c) in piece.chunks_mut(chunk).enumerate() {
            f(first + i, c);
        }
    });
}

/// `min(width, len)` contiguous pieces of `0..len`, the later ones one
/// longer where `len` does not divide.
fn pieces(width: usize, len: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Send {
    let k = width.min(len).max(1);
    let mut start = 0;
    (0..k).map(move |i| {
        let share = (len - start) / (k - i);
        start += share;
        start - share..start
    })
}

/// Runs `f` on every piece: the first on the calling thread, the others
/// on whichever thread — started here or the caller — is free first.
fn run<P: Send>(pieces: impl ExactSizeIterator<Item = P> + Send, f: impl Fn(P) + Sync) {
    if pieces.len() <= 1 {
        return pieces.for_each(f);
    }
    let spawns = pieces.len() - 1;
    let queue = Mutex::new(pieces);
    let next = || {
        let mut queue = queue.lock().expect("no piece runs under the lock");
        queue.next()
    };
    let drain = || {
        while let Some(p) = next() {
            f(p);
        }
    };
    std::thread::scope(|s| {
        let first = next();
        for _ in 0..spawns {
            #[cfg(feature = "chaos")]
            if super::control::chaos::spawn_refused() {
                break;
            }
            if std::thread::Builder::new().spawn_scoped(s, drain).is_err() {
                break;
            }
        }
        if let Some(p) = first {
            f(p);
        }
        drain();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pieces_cover_the_range_longer_towards_the_end() {
        let cut = |w, len| pieces(w, len).map(|r| (r.start, r.end)).collect::<Vec<_>>();
        assert_eq!(cut(3, 10), [(0, 3), (3, 6), (6, 10)]);
        assert_eq!(cut(4, 2), [(0, 1), (1, 2)]);
        assert_eq!(cut(1, 5), [(0, 5)]);
        assert_eq!(cut(8, 0), [(0, 0)]);
    }

    #[test]
    fn every_index_and_chunk_runs_once() {
        for w in 1..=5 {
            let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            for_each(w, hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "width {w}"
            );

            let mut v = vec![usize::MAX; 1000];
            for_each_chunk(w, &mut v, 64, |ci, chunk| chunk.fill(ci));
            assert!(v.iter().enumerate().all(|(i, &x)| x == i / 64), "width {w}");
        }
    }
}
