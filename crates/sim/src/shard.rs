//! A single-wheel DES engine for worlds decomposed into *logical
//! processes* (LPs).
//!
//! The model is a fixed set of LPs, each owning a disjoint slice of
//! one world's state. Every LP's events live on one [`EventQueue`]
//! timing wheel; [`ShardedSim::run`] pops the earliest event and hands
//! it to the world together with the LP it belongs to. LPs talk to
//! each other (and to themselves) through timestamped *cross* events.
//!
//! # The deterministic merge contract
//!
//! The LP ids are the namespace of the event order:
//!
//! 1. earliest timestamp first;
//! 2. at equal timestamps, cross events before local events;
//! 3. cross events tie-break by [`MergeKey`] — `(source LP,
//!    destination LP, per-channel send seq)`;
//! 4. local events at equal times keep timing-wheel FIFO order.
//!
//! The merge is realized *structurally* by
//! [`EventQueue::push_keyed`]: cross events are placed key-sorted
//! among same-instant entries at insertion time, so the hot pop path
//! is the plain wheel pop — there is no side ordering structure to
//! consult per event.
//!
//! Every [`ShardCtx::send`] must land strictly in the future: a keyed
//! push at the current instant could sort behind keys already popped
//! at that instant. Only [`ShardCtx::send_from`] may target the
//! current instant, and it exists for the one caller that replays an
//! elided send in exactly the key position the original would have
//! taken.

use crate::queue::{EventQueue, KeyedEvent, MergeKey};
use crate::time::SimTime;

/// A world decomposed into logical processes.
///
/// The world reacts to each LP's own (local) events and to cross
/// events arriving from other LPs; [`ShardCtx::lp`] names the LP the
/// current event belongs to.
pub trait ShardWorld {
    /// Events an LP schedules for itself.
    type Local;
    /// Events exchanged between LPs.
    type Cross;

    /// Handles one local event popped from the wheel.
    fn handle_local(
        &mut self,
        event: Self::Local,
        ctx: &mut ShardCtx<'_, Self::Local, Self::Cross>,
    );

    /// Handles one cross event sent by LP `src`.
    fn handle_cross(
        &mut self,
        src: usize,
        event: Self::Cross,
        ctx: &mut ShardCtx<'_, Self::Local, Self::Cross>,
    );
}

/// A wheel entry: a local event tagged with its LP, or a cross arrival
/// whose payload is parked in the slab (keeping the wheel entry small
/// and `Copy`-cheap to cascade).
enum Item<L> {
    Local {
        lp: u16,
        event: L,
    },
    Cross {
        src: u16,
        dst: u16,
        seq: u64,
        slot: u32,
    },
}

impl<L> KeyedEvent for Item<L> {
    fn merge_key(&self) -> Option<MergeKey> {
        match *self {
            Item::Local { .. } => None,
            Item::Cross { src, dst, seq, .. } => Some(MergeKey { src, dst, seq }),
        }
    }
}

/// Scheduling context handed to the world while it processes one
/// event.
pub struct ShardCtx<'a, L, C> {
    lp: usize,
    now: SimTime,
    lp_count: usize,
    queue: &'a mut EventQueue<Item<L>>,
    slab: &'a mut Vec<Option<C>>,
    slab_free: &'a mut Vec<u32>,
    send_seq: &'a mut [u64],
    clamped: &'a mut u64,
}

impl<L, C> ShardCtx<'_, L, C> {
    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The logical process the current event belongs to.
    pub fn lp(&self) -> usize {
        self.lp
    }

    /// Schedules a local event for the current LP at an absolute time.
    /// Past instants clamp to the clock and count, exactly like
    /// [`Scheduler::at`](crate::Scheduler::at).
    pub fn at(&mut self, time: SimTime, event: L) {
        self.at_lp(self.lp, time, event);
    }

    /// Schedules a local event for an **explicit** LP at an absolute
    /// time. Used by the fusion fast path, where the hub schedules the
    /// settlement event directly on the job's worker LP.
    pub fn at_lp(&mut self, lp: usize, time: SimTime, event: L) {
        if time < self.now {
            crate::driver::note_past_schedule(self.clamped, self.now, time);
        }
        self.queue.push(
            time.max(self.now),
            Item::Local {
                lp: lp as u16,
                event,
            },
        );
    }

    /// Re-brands the context as acting for `lp` — subsequent
    /// [`at`](Self::at)/[`send`](Self::send) calls schedule and draw
    /// per-channel sequence numbers as that LP — and returns the
    /// previous LP so the caller can restore it. Used by the fusion
    /// fast path when it settles a macro-event synchronously from
    /// inside another LP's handler: the settlement must emit exactly
    /// the events (and sequence draws) the real completion handler on
    /// the owning LP would have.
    pub fn set_acting_lp(&mut self, lp: usize) -> usize {
        std::mem::replace(&mut self.lp, lp)
    }

    /// Sends a cross event to LP `dst` (self-sends are allowed and
    /// ordered like any other cross event).
    ///
    /// # Panics
    ///
    /// Panics unless `time > now`: a keyed push at the current instant
    /// could sort behind keys already popped at that instant.
    pub fn send(&mut self, dst: usize, time: SimTime, event: C) {
        assert!(
            time > self.now,
            "cross send at {time} is not in the strict future (now {})",
            self.now,
        );
        self.push_cross(self.lp, dst, time, event);
    }

    /// Re-emits a cross event **as if** LP `src` had sent it — the
    /// de-fuse escape hatch of the fusion fast path. The send draws
    /// `src`'s per-channel sequence number, so a replayed event lands
    /// in exactly the merge-key position the elided original would
    /// have occupied. Unlike [`ShardCtx::send`] the replayed event may
    /// be scheduled at the current instant (it pops after the running
    /// handler, in key order among same-time entries).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn send_from(&mut self, src: usize, dst: usize, time: SimTime, event: C) {
        assert!(time >= self.now, "send_from must not target the past");
        self.push_cross(src, dst, time, event);
    }

    /// Draws the `(src, dst)` channel's next sequence number, parks the
    /// payload and pushes the keyed wheel entry.
    fn push_cross(&mut self, src: usize, dst: usize, time: SimTime, event: C) {
        assert!(dst < self.lp_count, "cross send to unknown LP {dst}");
        let channel = &mut self.send_seq[src * self.lp_count + dst];
        let seq = *channel;
        *channel += 1;
        let slot = match self.slab_free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.queue.push_keyed(
            time,
            Item::Cross {
                src: src as u16,
                dst: dst as u16,
                seq,
                slot,
            },
        );
    }
}

/// A simulation of one [`ShardWorld`] over `lp_count` logical
/// processes, all on one timing wheel.
pub struct ShardedSim<W: ShardWorld> {
    world: W,
    queue: EventQueue<Item<W::Local>>,
    /// Parked cross payloads referenced by wheel-resident
    /// `Item::Cross` entries.
    slab: Vec<Option<W::Cross>>,
    slab_free: Vec<u32>,
    lp_count: usize,
    /// Per-`(src LP, dst LP)` send counters, `lp_count²` flattened.
    send_seq: Vec<u64>,
    now: SimTime,
    processed: u64,
    clamped: u64,
    flushed_events: u64,
    flushed_clamped: u64,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Builds a simulation of `world` over LPs `0..lp_count`. LP ids
    /// must stay stable across runs — they are part of the merge
    /// contract.
    pub fn new(world: W, lp_count: usize) -> Self {
        assert!(lp_count > 0, "need at least one LP");
        assert!(lp_count <= u16::MAX as usize, "too many LPs");
        ShardedSim {
            world,
            queue: EventQueue::new(),
            slab: Vec::new(),
            slab_free: Vec::new(),
            lp_count,
            send_seq: vec![0; lp_count * lp_count],
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
            flushed_events: 0,
            flushed_clamped: 0,
        }
    }

    /// Seeds an initial local event on `lp`.
    pub fn schedule(&mut self, lp: usize, time: SimTime, event: W::Local) {
        self.queue.push(
            time,
            Item::Local {
                lp: lp as u16,
                event,
            },
        );
    }

    /// The instant of the last event processed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Total past-time schedules clamped to the clock.
    pub fn clamped_past_schedules(&self) -> u64 {
        self.clamped
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Flushes processed/clamped deltas to the process-wide
    /// [`metrics`](crate::metrics) counters (batched, like
    /// [`Simulation`](crate::Simulation)).
    fn flush_metrics(&mut self) {
        crate::metrics::add_events(self.processed - self.flushed_events);
        crate::metrics::add_clamped_past(self.clamped - self.flushed_clamped);
        self.flushed_events = self.processed;
        self.flushed_clamped = self.clamped;
    }

    /// Runs the simulation until the wheel is empty. Ties are fully
    /// resolved by the wheel (clauses 2–4 of the merge contract are
    /// structural), so this is a plain pop/dispatch loop.
    pub fn run(&mut self) {
        while let Some((time, item)) = self.queue.pop() {
            self.now = time;
            self.processed += 1;
            let lp = match item {
                Item::Local { lp, .. } => lp,
                Item::Cross { dst, .. } => dst,
            };
            let mut ctx = ShardCtx {
                lp: lp as usize,
                now: time,
                lp_count: self.lp_count,
                queue: &mut self.queue,
                slab: &mut self.slab,
                slab_free: &mut self.slab_free,
                send_seq: &mut self.send_seq,
                clamped: &mut self.clamped,
            };
            match item {
                Item::Local { event, .. } => self.world.handle_local(event, &mut ctx),
                Item::Cross { src, slot, .. } => {
                    let payload = ctx.slab[slot as usize].take().expect("parked cross");
                    ctx.slab_free.push(slot);
                    self.world.handle_cross(src as usize, payload, &mut ctx);
                }
            }
        }
        self.flush_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn cross_events_merge_by_time_src_seq() {
        // Two sources fire same-timestamp cross events at LP 0; the
        // receiver must see them ordered by (time, src, seq).
        struct Fan {
            seen: Vec<(usize, u64)>,
        }
        impl ShardWorld for Fan {
            type Local = ();
            type Cross = u64;
            fn handle_local(&mut self, _e: (), ctx: &mut ShardCtx<'_, (), u64>) {
                // Two sends to the same destination at the same
                // timestamp: seq breaks the tie.
                let id = ctx.lp() as u64;
                let t = ctx.now() + SimDuration::micros(10);
                ctx.send(0, t, id * 10);
                ctx.send(0, t, id * 10 + 1);
            }
            fn handle_cross(&mut self, src: usize, event: u64, _ctx: &mut ShardCtx<'_, (), u64>) {
                self.seen.push((src, event));
            }
        }
        let mut sim = ShardedSim::new(Fan { seen: Vec::new() }, 3);
        // Source 2 fires *first* in wall order but must still merge
        // after source 1's events (same timestamp, higher LP id).
        sim.schedule(2, SimTime::ZERO, ());
        sim.schedule(1, SimTime::ZERO, ());
        sim.run();
        assert_eq!(
            sim.into_world().seen,
            vec![(1, 10), (1, 11), (2, 20), (2, 21)]
        );
    }

    #[test]
    #[should_panic(expected = "strict future")]
    fn sends_not_in_the_strict_future_panic() {
        struct Bad;
        impl ShardWorld for Bad {
            type Local = ();
            type Cross = ();
            fn handle_local(&mut self, _e: (), ctx: &mut ShardCtx<'_, (), ()>) {
                ctx.send(0, ctx.now(), ());
            }
            fn handle_cross(&mut self, _s: usize, _e: (), _c: &mut ShardCtx<'_, (), ()>) {}
        }
        let mut sim = ShardedSim::new(Bad, 2);
        sim.schedule(0, SimTime::ZERO, ());
        sim.run();
    }
}
