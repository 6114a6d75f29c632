//! The one parallel loop of the engines: run `f` over an index range or
//! over the chunks of a slice on up to [`width`] threads.
//!
//! The threads are one process-wide team of parked workers. It starts
//! on the first parallel loop and grows to the widest loop asked for:
//! `width − 1` workers, the calling thread being the last member. A
//! loop's pieces — each index of [`for_each`], each chunk of
//! [`for_each_chunk`] — wait in one shared queue; the caller and the
//! workers it seats claim them one at a time until none is left, so a
//! slow thread holds up at most the piece it has. The caller returns
//! only after every worker has left the loop. A worker that finds no
//! loop stays awake for a moment before it parks, so the next loop of a
//! stream reaches it without a wake-up.
//!
//! The team serves one loop at a time. A loop issued inside a team
//! task, or while another thread holds the team, runs on its caller —
//! there is no second way of going parallel, and nothing ever waits for
//! the team. A worker the OS refuses to start (a `ulimit -v` too small
//! for its stack, a pid limit) leaves the team smaller: its share goes
//! to the members that exist, the caller among them. A refusal costs
//! time, never a result, because what a piece computes never depends on
//! the thread that runs it. A panic in a piece reaches the caller once
//! the loop is done, and the team stays usable.
//!
//! Its users are every whole-state pass of a wide dense run: the kernels
//! (`sim::kernel`'s `split`, `split_flat` and window sweeps), the
//! state's first touch ([`filled`], from `sim::prep`), the watchdog's
//! norm and renormalization (`sim::shots`) and a streamed draw's outcome
//! pass (`sim::sampler::CdfStream`); and, at shot granularity, the
//! trajectory and Pauli-frame fan-outs. Below the parallel threshold
//! each of them asks for width 1, and a width-1 loop runs inline
//! without looking at the team. The trajectory fan-out applies the same
//! threshold to the ensemble as a whole (`sim::shots`'s
//! `ensemble_width`): below one parallel kernel pass of work its batches
//! run inline, so a paper-sized sample never starts the team.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
    run(width, 0..len, f);
}

/// Runs `f(i, c)` for every `chunk`-long piece `c` of `data` (the last
/// may be shorter), `i` its position, on up to `width` threads.
pub(crate) fn for_each_chunk<T: Send>(
    width: usize,
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    run(width, data.chunks_mut(chunk).enumerate(), |(i, c)| f(i, c));
}

/// Elements per piece of [`filled`]: 64 KiB of `C64`s, 16 pages.
const FILL_PIECE: usize = 1 << 12;

/// A vector of `len` copies of `value`, written on up to `width`
/// threads: a large vector's pages are first touched — faulted in — by
/// the threads that write them, not all by the caller.
pub(crate) fn filled<T: Copy + Send + Sync>(width: usize, len: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(len);
    let spare = &mut v.spare_capacity_mut()[..len];
    for_each_chunk(width, spare, FILL_PIECE, |_, piece| {
        for x in piece {
            x.write(value);
        }
    });
    // SAFETY: the capacity is at least `len`, and `for_each_chunk` has
    // run the closure on every piece of the first `len` spare slots
    // before it returns — a panicking piece reaches this frame as a
    // panic, before this line — so each of them holds `value`.
    unsafe { v.set_len(len) };
    v
}

/// Runs `f` on every piece, on the caller and on up to `width − 1`
/// workers of the team, each claiming the next piece when it is free.
fn run<P: Send>(
    width: usize,
    pieces: impl ExactSizeIterator<Item = P> + Send,
    f: impl Fn(P) + Sync,
) {
    let helpers = width.min(pieces.len()).saturating_sub(1);
    if helpers == 0 {
        return pieces.for_each(f);
    }
    let queue = Mutex::new(pieces);
    let drain = || loop {
        // the guard drops before the piece runs: no piece runs under it
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(p) => f(p),
            None => break,
        }
    };
    if !post(helpers, &drain) {
        return drain();
    }
    // by reference: the workers hold `drain` where it is
    let caught = panic::catch_unwind(AssertUnwindSafe(&drain));
    let worker_panic = close();
    if let Some(p) = caught.err().or(worker_panic) {
        panic::resume_unwind(p);
    }
}

/// A posted loop's drain, borrowed from the caller's frame (see [`post`]).
type Task = &'static (dyn Fn() + Sync);

/// What the caller and the workers share, under [`TEAM`]'s lock.
struct Board {
    /// Workers started so far.
    workers: usize,
    /// Whether a caller holds the team.
    held: bool,
    /// The held loop's drain, while workers may still join it.
    task: Option<Task>,
    /// How many more workers may join the held loop.
    seats: usize,
    /// Workers inside the held loop's drain.
    inside: usize,
    /// The first panic a worker caught in the held loop.
    panic: Option<Box<dyn Any + Send>>,
}

struct Team {
    board: Mutex<Board>,
    /// Loops posted so far: what a worker that is awake watches.
    posts: AtomicUsize,
    /// Workers park here until a loop offers a seat.
    posted: Condvar,
    /// The caller waits here for its workers to leave the loop.
    left: Condvar,
}

static TEAM: Team = Team {
    board: Mutex::new(Board {
        workers: 0,
        held: false,
        task: None,
        seats: 0,
        inside: 0,
        panic: None,
    }),
    posts: AtomicUsize::new(0),
    posted: Condvar::new(),
    left: Condvar::new(),
};

/// Nothing panics while the board is locked, so a poisoned lock still
/// guards a consistent board.
fn board() -> MutexGuard<'static, Board> {
    TEAM.board.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the team for one loop and offers `drain` to up to `helpers`
/// workers, starting the ones the team lacks. Returns `false`, touching
/// nothing, when another caller holds the team — which is also the case
/// for a loop issued inside a team task. A caller that got `true` must
/// call [`close`] before `drain` goes out of scope.
fn post(helpers: usize, drain: &(dyn Fn() + Sync)) -> bool {
    let mut board = board();
    if board.held {
        return false;
    }
    board.held = true;
    let (had, hire) = (board.workers, helpers.saturating_sub(board.workers));
    board.workers += hire;
    // a refused hand-off stands for a refused start: that worker sits
    // the loop out
    #[cfg(feature = "chaos")]
    let helpers = (0..helpers)
        .filter(|_| !super::control::chaos::spawn_refused())
        .count();
    board.seats = helpers;
    // SAFETY: the workers see `drain` only through `board.task`, and only
    // take it to run it. `close` — which every caller that got `true`
    // here runs before `drain` leaves its scope, panic or not — clears
    // `board.task` and then waits until `board.inside`, the number of
    // workers between taking it and having returned from it, is zero.
    // So no worker touches `drain` after its borrow ends.
    board.task = Some(unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(drain) });
    TEAM.posts.fetch_add(1, Ordering::Release);
    drop(board);
    TEAM.posted.notify_all();
    // started outside the lock: a new worker finds the loop at once,
    // instead of sleeping on the lock until this caller wakes it
    for started in 0..hire {
        let name = format!("qclab-par-{}", had + started + 1);
        if std::thread::Builder::new().name(name).spawn(work).is_err() {
            // a seat nobody takes is harmless: `close` clears it
            self::board().workers -= hire - started;
            break;
        }
    }
    true
}

/// Ends the held loop: no worker joins it any more, the ones inside have
/// left, and the team is free. Returns the first panic a worker caught.
fn close() -> Option<Box<dyn Any + Send>> {
    let mut board = board();
    board.task = None;
    board.seats = 0;
    while board.inside > 0 {
        board = TEAM
            .left
            .wait(board)
            .unwrap_or_else(PoisonError::into_inner);
    }
    board.held = false;
    board.panic.take()
}

/// How long a worker that found no seat stays awake before it parks. A
/// stream posts its next loop within microseconds, and a worker still
/// awake joins it without a wake-up: parking at once made a two-thread
/// noisy 12-qubit sample ≈ 9 % slower than a thread started per loop
/// (EXPERIMENTS F21).
const SPIN: Duration = Duration::from_micros(200);

/// A worker's life: wait for a loop that offers a seat — awake for
/// [`SPIN`], then parked — drain it, repeat.
fn work() {
    let mut board = board();
    let mut awake = true;
    loop {
        if let Some(task) = board.task.filter(|_| board.seats > 0) {
            board.seats -= 1;
            board.inside += 1;
            drop(board);
            let caught = panic::catch_unwind(AssertUnwindSafe(task));
            board = self::board();
            board.inside -= 1;
            if let Err(p) = caught {
                board.panic.get_or_insert(p);
            }
            if board.inside == 0 {
                TEAM.left.notify_one();
            }
            awake = true;
        } else if awake {
            let seen = TEAM.posts.load(Ordering::Acquire);
            drop(board);
            let start = Instant::now();
            while TEAM.posts.load(Ordering::Acquire) == seen && start.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            board = self::board();
            awake = false;
        } else {
            board = TEAM
                .posted
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
            awake = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn filled_writes_every_element_at_every_width() {
        for w in 1..=4 {
            for len in [0, 1, FILL_PIECE - 1, FILL_PIECE, 3 * FILL_PIECE + 5] {
                let v = filled(w, len, (w, 7u8));
                assert_eq!(v.len(), len);
                assert!(v.iter().all(|&x| x == (w, 7)), "width {w}, len {len}");
            }
        }
    }

    #[test]
    fn a_panicking_piece_reaches_the_caller_and_the_team_stays_usable() {
        let me = std::thread::current().id();
        // a loop whose pieces panic on the caller (`true`) or on a
        // worker: the panic must reach the caller. Another test may hold
        // the team, or one side may drain every piece: retry until a
        // piece panicked on the wanted side.
        let reaches_caller = |on_caller: bool| {
            (0..1000).any(|_| {
                panic::catch_unwind(|| {
                    for_each(3, 64, |_| {
                        assert!((std::thread::current().id() == me) != on_caller, "planted");
                        std::thread::yield_now();
                    })
                })
                .is_err()
            })
        };
        assert!(reaches_caller(true), "the caller's panic was lost");
        assert!(
            reaches_caller(false),
            "no worker's panic reached the caller"
        );
        let rejoined = (0..1000).any(|_| {
            let on_team = AtomicUsize::new(0);
            for_each(2, 64, |_| {
                if std::thread::current().id() != me {
                    on_team.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            });
            on_team.into_inner() > 0
        });
        assert!(rejoined, "no worker ran a piece after the panics");
    }

    #[test]
    fn a_loop_inside_a_team_task_runs_inline() {
        // another test may hold the team, and then this loop runs inline:
        // retry until both pieces ran at once, on the caller and a worker
        let had_team = (0..50).any(|_| {
            let (started, met) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let pairs = Mutex::new(Vec::new());
            for_each(2, 2, |_| {
                started.fetch_add(1, Ordering::SeqCst);
                let t0 = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < 2 {
                    if t0.elapsed() > std::time::Duration::from_millis(200) {
                        return;
                    }
                    std::thread::yield_now();
                }
                met.fetch_add(1, Ordering::SeqCst);
                let outer = std::thread::current().id();
                for_each(4, 16, |_| {
                    let inner = std::thread::current().id();
                    pairs.lock().unwrap().push((outer, inner));
                });
            });
            if met.into_inner() < 2 {
                return false;
            }
            let pairs = pairs.into_inner().unwrap();
            assert_eq!(pairs.len(), 2 * 16);
            assert!(pairs.iter().all(|(outer, inner)| outer == inner));
            true
        });
        assert!(had_team, "the loop never ran on the team");
    }

    #[test]
    fn two_callers_at_once_each_see_every_index_once() {
        std::thread::scope(|s| {
            for caller in 0..2 {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || {
                        for round in 0..50 {
                            let hits: Vec<AtomicUsize> =
                                (0..257).map(|_| AtomicUsize::new(0)).collect();
                            for_each(3, hits.len(), |i| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            });
                            assert!(
                                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                                "caller {caller}, round {round}"
                            );
                        }
                    })
                    .expect("a test thread");
            }
        });
    }

    #[test]
    fn width_one_never_touches_the_team() {
        // lock the board: a loop that looked at the team would block
        // until the lock is released, so finishing under it is the proof
        let locked = board();
        let (done, finished) = std::sync::mpsc::channel();
        let probe = std::thread::Builder::new()
            .spawn(move || {
                let me = std::thread::current().id();
                let hits = AtomicUsize::new(0);
                for_each(1, 100, |_| {
                    assert_eq!(std::thread::current().id(), me);
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                let mut v = vec![0u8; 100];
                for_each_chunk(1, &mut v, 7, |_, c| c.fill(1));
                done.send(hits.into_inner() == 100 && v.iter().all(|&x| x == 1))
                    .expect("the test waits");
            })
            .expect("a test thread");
        let result = finished.recv_timeout(std::time::Duration::from_secs(20));
        drop(locked);
        probe.join().expect("the probe ran");
        assert_eq!(result, Ok(true), "a width-1 loop waited for the team");
    }
}
