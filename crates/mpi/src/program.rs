//! The rank-program interface: how algorithms run on the simulated runtime.
//!
//! A [`RankProgram`] is one rank's state machine. It is started once and
//! then driven purely by [`Completion`] events — the completion of a
//! low-level non-blocking operation *is* the event of the paper's
//! event-driven design, and the program's `on_completion` body is the
//! attached callback (`set_Isend_cb` / `set_Irecv_cb` in the paper's
//! Algorithm 3).
//!
//! Blocking and Waitall-style baselines are expressed in the same
//! interface by simply not posting further work until the completions
//! they "wait" for have arrived — which reproduces exactly the
//! synchronization dependencies §2.1 analyzes.

use crate::payload::Payload;
use adapt_sim::time::{Duration, Time};
use adapt_topology::{MemSpace, Rank};

/// Caller-chosen identifier carried through an operation to its completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Message tag (collectives use one tag per segment/phase).
pub type Tag = u32;

/// Wildcard receive tag: matches any tag from the given source, in arrival
/// order. Pipelined collectives use it so a window of `M` posted receives
/// accepts whichever segments complete first on the sender — exactly how
/// the ADAPT window behaves in Open MPI, and necessary to avoid
/// window-mismatch stalls when segments complete out of order.
pub const ANY_TAG: Tag = u32::MAX;

/// Marker bit of a *range* wildcard (see [`any_tag_in_block`]).
pub const WILDCARD_BIT: Tag = 0x8000_0000;

/// Width of one wildcard block in tag space.
pub const TAG_BLOCK: u32 = 1 << 20;

/// A scoped wildcard: matches any tag in block `block`, i.e. the range
/// `[block * TAG_BLOCK, (block + 1) * TAG_BLOCK)`. Phased compositions use
/// one block per phase so an ADAPT-style wildcard window inside a phase
/// cannot capture another phase's traffic.
pub fn any_tag_in_block(block: u32) -> Tag {
    debug_assert!(block < WILDCARD_BIT / TAG_BLOCK);
    WILDCARD_BIT | block
}

/// Does a posted receive tag accept a message tag?
pub fn tag_matches(posted: Tag, actual: Tag) -> bool {
    if posted == ANY_TAG {
        return true;
    }
    if posted & WILDCARD_BIT != 0 {
        let lo = (posted & !WILDCARD_BIT) * TAG_BLOCK;
        return actual >= lo && actual - lo < TAG_BLOCK;
    }
    posted == actual
}

/// A completion event delivered to a rank program.
#[derive(Clone, Debug)]
pub enum Completion {
    /// An `isend` finished: the send buffer is reusable.
    SendDone {
        /// Token from the originating `isend`.
        token: Token,
    },
    /// An `irecv` matched and its data arrived.
    RecvDone {
        /// Token from the originating `irecv`.
        token: Token,
        /// Sending rank.
        src: Rank,
        /// Message tag.
        tag: Tag,
        /// The received payload.
        data: Payload,
    },
    /// A blocking `compute` finished.
    ComputeDone {
        /// Token from the originating `compute`.
        token: Token,
    },
    /// An asynchronous local copy (e.g. GPU staging DMA) finished.
    CopyDone {
        /// Token from the originating `copy`.
        token: Token,
    },
    /// An asynchronous GPU-stream operation finished.
    GpuDone {
        /// Token from the originating `gpu_reduce`.
        token: Token,
    },
}

impl Completion {
    /// The token of any completion kind.
    pub fn token(&self) -> Token {
        match self {
            Completion::SendDone { token }
            | Completion::RecvDone { token, .. }
            | Completion::ComputeDone { token }
            | Completion::CopyDone { token }
            | Completion::GpuDone { token } => *token,
        }
    }
}

/// Operations a program can request. Posted through a [`ProgramCtx`];
/// applied by the runtime in order, each paying its CPU cost on the rank.
#[derive(Clone, Debug)]
pub enum Op {
    /// Non-blocking send.
    Isend {
        /// Destination rank.
        dst: Rank,
        /// Message tag.
        tag: Tag,
        /// Body.
        payload: Payload,
        /// Completion token.
        token: Token,
        /// Memory the data leaves from (default: the rank's default space).
        src_mem: Option<MemSpace>,
    },
    /// Non-blocking receive.
    Irecv {
        /// Source rank.
        src: Rank,
        /// Message tag.
        tag: Tag,
        /// Completion token.
        token: Token,
        /// Memory the data lands in (default: the rank's default space).
        dst_mem: Option<MemSpace>,
    },
    /// Blocking CPU work (reductions, packing, application compute).
    Compute {
        /// CPU time consumed.
        work: Duration,
        /// Completion token.
        token: Token,
    },
    /// Asynchronous reduction offloaded to the rank's GPU stream (§4.2).
    GpuReduce {
        /// Bytes of result produced.
        bytes: u64,
        /// Completion token.
        token: Token,
    },
    /// Asynchronous DMA copy between memory spaces (e.g. device → host
    /// staging buffer, §4.1).
    Copy {
        /// Source memory space.
        from: MemSpace,
        /// Destination memory space.
        to: MemSpace,
        /// Bytes copied.
        bytes: u64,
        /// Completion token.
        token: Token,
    },
    /// Observability mark: the rank entered (`begin`) or left a
    /// collective phase. Zero cost, schedules nothing — a run behaves
    /// identically whether or not any program posts these.
    Phase {
        /// Phase index within the rank's phase chain.
        index: u32,
        /// Entering (`true`) or leaving (`false`) the phase.
        begin: bool,
    },
    /// The rank is done with the operation being simulated.
    Finish,
}

/// One rank's algorithm.
///
/// The `Any` supertrait lets callers downcast the programs returned in
/// [`RunResult`](crate::world::RunResult) to inspect final state (e.g.
/// verify received buffers).
pub trait RankProgram: std::any::Any {
    /// Called once at simulation start (time 0, subject to the rank's
    /// noise process).
    fn on_start(&mut self, ctx: &mut dyn ProgramCtx);

    /// Called on every completion of an operation this program posted.
    fn on_completion(&mut self, ctx: &mut dyn ProgramCtx, completion: Completion);

    /// Called once per newly detected failed rank, after the runtime's
    /// failure detector converged on it (ULFM-style revoke notification).
    /// `dead` is the *cumulative* agreed failed set, most recent last.
    /// `active` is the snapshot of survivors still running at the
    /// detection instant, taken once and handed to *every* survivor's
    /// callback in the same batch: both sides of a repaired edge (a new
    /// parent and an adopted child, say) decide from identical
    /// information, so a recovery protocol can commit traffic knowing
    /// the peer made the matching commitment. Never send to a rank
    /// outside `active` — it has already finished and will not consume.
    ///
    /// The default ignores the notification: a program that never posts
    /// to or waits on the dead rank completes untouched, and one that
    /// does will be diagnosed by the runtime as a structured failure
    /// (never a panic). Fault-aware collectives override this to rebuild
    /// their communication structure around the dead rank and complete
    /// among survivors.
    fn on_peer_failed(&mut self, ctx: &mut dyn ProgramCtx, dead: &[Rank], active: &[Rank]) {
        let _ = (ctx, dead, active);
    }
}

/// What a program may do and observe while handling an event. Implemented
/// by the runtime's operation sink; object-safe so programs are plain
/// trait objects.
pub trait ProgramCtx {
    /// This rank's id.
    fn rank(&self) -> Rank;
    /// Number of ranks in the job.
    fn nranks(&self) -> u32;
    /// Current virtual time (the handler's start instant).
    fn now(&self) -> Time;
    /// Default memory space of a rank (device memory for GPU-bound ranks).
    fn mem_of(&self, rank: Rank) -> MemSpace;
    /// Host memory space on a rank's socket.
    fn host_of(&self, rank: Rank) -> MemSpace;
    /// CPU time to reduce `bytes` on the host.
    fn cpu_reduce_cost(&self, bytes: u64) -> Duration;
    /// The machine's eager-protocol size limit.
    fn eager_limit(&self) -> u64;
    /// Queue an operation (applied after the handler returns, in order).
    fn post(&mut self, op: Op);
}

/// Convenience extension methods over [`ProgramCtx`].
impl dyn ProgramCtx + '_ {
    /// Non-blocking send from the rank's default memory.
    pub fn isend(&mut self, dst: Rank, tag: Tag, payload: Payload, token: Token) {
        self.post(Op::Isend {
            dst,
            tag,
            payload,
            token,
            src_mem: None,
        });
    }

    /// Non-blocking receive into the rank's default memory.
    pub fn irecv(&mut self, src: Rank, tag: Tag, token: Token) {
        self.post(Op::Irecv {
            src,
            tag,
            token,
            dst_mem: None,
        });
    }

    /// Blocking CPU work.
    pub fn compute(&mut self, work: Duration, token: Token) {
        self.post(Op::Compute { work, token });
    }

    /// Blocking CPU reduction of `bytes`.
    pub fn cpu_reduce(&mut self, bytes: u64, token: Token) {
        let work = self.cpu_reduce_cost(bytes);
        self.post(Op::Compute { work, token });
    }

    /// Asynchronous GPU-stream reduction of `bytes`.
    pub fn gpu_reduce(&mut self, bytes: u64, token: Token) {
        self.post(Op::GpuReduce { bytes, token });
    }

    /// Asynchronous DMA copy.
    pub fn copy(&mut self, from: MemSpace, to: MemSpace, bytes: u64, token: Token) {
        self.post(Op::Copy {
            from,
            to,
            bytes,
            token,
        });
    }

    /// Declare this rank finished.
    pub fn finish(&mut self) {
        self.post(Op::Finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tags_match_exactly() {
        assert!(tag_matches(5, 5));
        assert!(!tag_matches(5, 6));
    }

    #[test]
    fn any_tag_matches_everything() {
        assert!(tag_matches(ANY_TAG, 0));
        assert!(tag_matches(ANY_TAG, 123_456));
    }

    #[test]
    fn block_wildcards_are_scoped() {
        let w1 = any_tag_in_block(1);
        assert!(tag_matches(w1, TAG_BLOCK));
        assert!(tag_matches(w1, 2 * TAG_BLOCK - 1));
        assert!(!tag_matches(w1, TAG_BLOCK - 1));
        assert!(!tag_matches(w1, 2 * TAG_BLOCK));
        let w0 = any_tag_in_block(0);
        assert!(tag_matches(w0, 0));
        assert!(!tag_matches(w0, TAG_BLOCK));
    }

    #[test]
    fn completion_token_accessor() {
        let c = Completion::SendDone { token: Token(9) };
        assert_eq!(c.token(), Token(9));
        let c = Completion::GpuDone { token: Token(4) };
        assert_eq!(c.token(), Token(4));
    }
}
