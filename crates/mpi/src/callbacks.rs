//! The paper's literal callback API: `Isend`/`Irecv` with an attached
//! closure (`set_Isend_cb` / `set_Irecv_cb`, Algorithm 3), as sugar over
//! [`RankProgram`].
//!
//! Each posted operation carries a single-shot closure that runs when the
//! operation completes; the closure can post further operations with their
//! own callbacks — the "completion unfolds the next data movements" model
//! of §2.2. The structured collectives in `adapt-core` use explicit state
//! machines for testability; this module exists for small experiments and
//! for fidelity to the paper's programming interface.
//!
//! ```
//! use adapt_mpi::callbacks::{CallbackProgram, Cb};
//! use adapt_mpi::{Payload, RankProgram, World};
//! use adapt_noise::ClusterNoise;
//! use adapt_topology::profiles;
//!
//! // A 2-rank ping-pong written in callback style.
//! let ping = CallbackProgram::new(|cb: &mut Cb| {
//!     cb.isend_cb(1, 0, Payload::Synthetic(1024), |cb, _done| {
//!         cb.irecv_cb(1, 1, |cb, _pong| cb.finish());
//!     });
//! });
//! let pong = CallbackProgram::new(|cb: &mut Cb| {
//!     cb.irecv_cb(0, 0, |cb, _ping| {
//!         cb.isend_cb(0, 1, Payload::Synthetic(1024), |cb, _done| cb.finish());
//!     });
//! });
//! let world = World::cpu(profiles::minicluster(1, 1, 2), 2, ClusterNoise::silent(2));
//! let result = world.try_run(vec![Box::new(ping), Box::new(pong)]).unwrap();
//! assert!(result.makespan.as_nanos() > 0);
//! ```

use crate::payload::Payload;
use crate::program::{Completion, ProgramCtx, RankProgram, Tag, Token};
use adapt_sim::fxhash::FxHashMap;
use adapt_sim::time::Duration;
use adapt_topology::Rank;

/// A single-shot completion callback.
type Handler = Box<dyn FnMut(&mut Cb<'_, '_>, Completion)>;

/// The callback-posting context handed to every closure.
pub struct Cb<'a, 'b> {
    ctx: &'a mut (dyn ProgramCtx + 'b),
    newly_attached: Vec<(u64, Handler)>,
    next_token: &'a mut u64,
}

impl Cb<'_, '_> {
    fn attach(&mut self, handler: Handler) -> Token {
        let id = *self.next_token;
        *self.next_token += 1;
        self.newly_attached.push((id, handler));
        Token(id)
    }

    /// `Isend` + `set_Isend_cb`: non-blocking send whose completion runs
    /// `cb`.
    pub fn isend_cb(
        &mut self,
        dst: Rank,
        tag: Tag,
        payload: Payload,
        cb: impl FnMut(&mut Cb<'_, '_>, Completion) + 'static,
    ) {
        let token = self.attach(Box::new(cb));
        self.ctx.isend(dst, tag, payload, token);
    }

    /// `Irecv` + `set_Irecv_cb`: non-blocking receive whose completion runs
    /// `cb` (the received payload arrives in the [`Completion`]).
    pub fn irecv_cb(
        &mut self,
        src: Rank,
        tag: Tag,
        cb: impl FnMut(&mut Cb<'_, '_>, Completion) + 'static,
    ) {
        let token = self.attach(Box::new(cb));
        self.ctx.irecv(src, tag, token);
    }

    /// Blocking CPU work whose completion runs `cb`.
    pub fn compute_cb(
        &mut self,
        work: Duration,
        cb: impl FnMut(&mut Cb<'_, '_>, Completion) + 'static,
    ) {
        let token = self.attach(Box::new(cb));
        self.ctx.compute(work, token);
    }

    /// Declare this rank finished.
    pub fn finish(&mut self) {
        self.ctx.finish();
    }

    /// The underlying context (rank id, time, memory spaces...).
    pub fn ctx(&mut self) -> &mut dyn ProgramCtx {
        self.ctx
    }
}

/// The program's start closure.
type StartFn = Box<dyn FnOnce(&mut Cb<'_, '_>)>;

/// A rank program assembled from closures (see module docs).
pub struct CallbackProgram {
    start: Option<StartFn>,
    handlers: FxHashMap<u64, Handler>,
    next_token: u64,
}

impl CallbackProgram {
    /// Create a program whose body starts with `start`.
    pub fn new(start: impl FnOnce(&mut Cb<'_, '_>) + 'static) -> CallbackProgram {
        CallbackProgram {
            start: Some(Box::new(start)),
            handlers: FxHashMap::default(),
            next_token: 0,
        }
    }

    fn drive(&mut self, ctx: &mut dyn ProgramCtx, run: impl FnOnce(&mut Cb<'_, '_>)) {
        let attached = {
            let mut cb = Cb {
                ctx,
                newly_attached: Vec::new(),
                next_token: &mut self.next_token,
            };
            run(&mut cb);
            cb.newly_attached
        };
        for (id, h) in attached {
            self.handlers.insert(id, h);
        }
    }
}

impl RankProgram for CallbackProgram {
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
        let start = self.start.take().expect("started once");
        self.drive(ctx, |cb| start(cb));
    }

    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion) {
        let token = completion.token();
        let mut handler = self
            .handlers
            .remove(&token.0)
            .expect("completion for unknown callback");
        self.drive(ctx, |cb| handler(cb, completion));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use adapt_noise::ClusterNoise;
    use adapt_topology::profiles;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn algorithm3_pipelined_sends() {
        // The paper's Algorithm 3 at the root: keep N sends in flight; each
        // completion posts the next available segment.
        const NSEG: u64 = 16;
        const WINDOW: u64 = 4;

        fn pump(cb: &mut Cb<'_, '_>, sent: Rc<Cell<u64>>, done: Rc<Cell<u64>>) {
            let seg = sent.get();
            if seg >= NSEG {
                if done.get() == NSEG {
                    cb.finish();
                }
                return;
            }
            sent.set(seg + 1);
            let (sent2, done2) = (sent.clone(), done.clone());
            cb.isend_cb(
                1,
                seg as u32,
                Payload::Synthetic(32 * 1024),
                move |cb, _| {
                    done2.set(done2.get() + 1);
                    pump(cb, sent2.clone(), done2.clone());
                },
            );
        }

        let sent = Rc::new(Cell::new(0u64));
        let done = Rc::new(Cell::new(0u64));
        let (s2, d2) = (sent.clone(), done.clone());
        let root = CallbackProgram::new(move |cb| {
            for _ in 0..WINDOW {
                pump(cb, s2.clone(), d2.clone());
            }
        });

        struct Sink {
            got: u64,
        }
        impl RankProgram for Sink {
            fn on_start(&mut self, ctx: &mut dyn ProgramCtx) {
                for seg in 0..NSEG {
                    ctx.irecv(0, seg as u32, Token(seg));
                }
            }
            fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, _c: Completion) {
                self.got += 1;
                if self.got == NSEG {
                    ctx.finish();
                }
            }
        }

        let world = World::cpu(profiles::minicluster(1, 1, 2), 2, ClusterNoise::silent(2));
        let res = world
            .try_run(vec![Box::new(root), Box::new(Sink { got: 0 })])
            .unwrap();
        assert_eq!(res.stats.messages, NSEG);
        assert_eq!(done.get(), NSEG);
    }

    #[test]
    fn compute_callback_chain() {
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        let o = order.clone();
        let prog = CallbackProgram::new(move |cb| {
            let o2 = o.clone();
            cb.compute_cb(Duration::from_micros(10), move |cb, _| {
                o2.borrow_mut().push(1);
                let o3 = o2.clone();
                cb.compute_cb(Duration::from_micros(10), move |cb, _| {
                    o3.borrow_mut().push(2);
                    cb.finish();
                });
            });
        });
        let world = World::cpu(profiles::minicluster(1, 1, 1), 1, ClusterNoise::silent(1));
        let res = world.try_run(vec![Box::new(prog)]).unwrap();
        assert_eq!(*order.borrow(), vec![1, 2]);
        assert!(res.makespan >= Duration::from_micros(20));
    }
}
