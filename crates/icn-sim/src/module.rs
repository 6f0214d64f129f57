//! Per-stage simulation state: input buffers, circuit-held outputs.
//!
//! The stage's ports are stored *flat* (module-major: module `m` of a
//! radix-`r` stage owns input/output indices `m*r .. (m+1)*r`), so the
//! engine's per-cycle sweeps are contiguous array walks instead of a
//! `Vec<Module<Vec<Port>>>` pointer chase.
//!
//! The input buffers of a stage are one struct-of-arrays slab,
//! [`InputPorts`]: per-port `len`/`head` ring cursors, one `slots` array
//! holding every port's fixed ring of `buffer_capacity` slots (all
//! allocated when the stage is built; [`crate::SimConfig::validate`]
//! bounds the capacity by [`crate::MAX_BUFFER_CAPACITY`]), and two cached
//! *front events* per port, refreshed by every push, pop, grant and drop:
//!
//! * `ready_at[p]` — the cycle an ungranted front may first request its
//!   output (`head_arrival + ready_offset`), else [`NEVER`];
//! * `vacate_at[p]` — the cycle a granted front's tail leaves the buffer,
//!   else [`NEVER`].
//!
//! So the vacate sweep reads one `u64` per port and the grant phase's
//! ready test is one compare, both over contiguous memory. Buffer slots
//! hold a 4-byte [`PacketRef`] into the engine's packet arena, not the
//! packet itself. Only a port's front can ever be granted: the slot behind
//! it cannot request until the granted front has vacated.

use crate::store::PacketRef;

/// "No such event" in the cached front-event arrays.
pub(crate) const NEVER: u64 = u64::MAX;

/// A packet occupying (or reserved into) one input-buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The packet, by arena reference.
    pub packet: PacketRef,
    /// Cycle its head arrives (reservations are pushed at upstream grant
    /// time with a future arrival).
    pub head_arrival: u64,
    /// Cycle the slot is freed (tail has left the buffer) once granted;
    /// [`NEVER`] while ungranted.
    pub vacate_at: u64,
}

impl Slot {
    const EMPTY: Self = Self {
        packet: PacketRef(u32::MAX),
        head_arrival: 0,
        vacate_at: NEVER,
    };

    /// Set once the packet has been granted its onward output; the slot
    /// then drains until `vacate_at`.
    pub fn granted(&self) -> bool {
        self.vacate_at != NEVER
    }
}

/// One stage's input ports as a struct-of-arrays slab (see the module
/// docs). Each port is a FIFO of at most `capacity` slots with
/// back-pressure: occupancy counts both resident packets and in-flight
/// reservations, which is exactly what the paper's buffer-full line
/// signals upstream.
#[derive(Debug)]
pub(crate) struct InputPorts {
    capacity: usize,
    ready_offset: u64,
    len: Vec<u32>,
    head: Vec<u32>,
    ready_at: Vec<u64>,
    vacate_at: Vec<u64>,
    slots: Vec<Slot>,
}

impl InputPorts {
    /// `ports` empty ports of `capacity` slots each; a front becomes ready
    /// `ready_offset` cycles after its head arrives (0 for cut-through,
    /// `flits - 1` for store-and-forward).
    pub fn new(ports: usize, capacity: u32, ready_offset: u64) -> Self {
        let capacity = capacity as usize;
        Self {
            capacity,
            ready_offset,
            len: vec![0; ports],
            head: vec![0; ports],
            ready_at: vec![NEVER; ports],
            vacate_at: vec![NEVER; ports],
            slots: vec![Slot::EMPTY; ports * capacity],
        }
    }

    /// A mutable view of every port (split it into chunk views with
    /// [`InputsMut::split_at_mut`]).
    pub fn view_mut(&mut self) -> InputsMut<'_> {
        InputsMut {
            capacity: self.capacity,
            ready_offset: self.ready_offset,
            len: &mut self.len,
            head: &mut self.head,
            ready_at: &mut self.ready_at,
            vacate_at: &mut self.vacate_at,
            slots: &mut self.slots,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.len.len()
    }

    /// Total packets buffered (or reserved) across `ports`.
    pub fn occupancy(&self, ports: std::ops::Range<usize>) -> u64 {
        self.len[ports].iter().map(|&n| u64::from(n)).sum()
    }

    /// Buffered packets not yet granted onward — the packets that live
    /// here rather than downstream (the conservation invariant counts
    /// them). Like the other consistency probes below, compiled only into
    /// debug builds and tests.
    #[cfg(any(test, debug_assertions))]
    pub fn ungranted(&self) -> u64 {
        (0..self.ports())
            .map(|p| u64::from(self.len[p]) - u64::from(self.vacate_at[p] != NEVER))
            .sum()
    }

    /// The first port whose cached `ready_at`/`vacate_at` disagrees with
    /// its front slot, or `None` when every cache is consistent.
    #[cfg(any(test, debug_assertions))]
    pub fn stale_front(&self) -> Option<usize> {
        (0..self.ports()).find(|&p| {
            let (ready_at, vacate_at) = match self.front(p) {
                None => (NEVER, NEVER),
                Some(s) if s.granted() => (NEVER, s.vacate_at),
                Some(s) => (s.head_arrival + self.ready_offset, NEVER),
            };
            (self.ready_at[p], self.vacate_at[p]) != (ready_at, vacate_at)
        })
    }

    /// Port `p`'s front slot, if any.
    #[cfg(any(test, debug_assertions))]
    pub fn front(&self, p: usize) -> Option<&Slot> {
        (self.len[p] > 0).then(|| &self.slots[p * self.capacity + self.head[p] as usize])
    }
}

/// A mutable view of a contiguous run of one stage's input ports
/// (index 0 = the run's first port). Views from
/// [`InputsMut::split_at_mut`] are disjoint, which is what lets shard
/// chunks own their ports.
#[derive(Debug)]
pub(crate) struct InputsMut<'a> {
    capacity: usize,
    ready_offset: u64,
    len: &'a mut [u32],
    head: &'a mut [u32],
    ready_at: &'a mut [u64],
    vacate_at: &'a mut [u64],
    slots: &'a mut [Slot],
}

impl<'a> InputsMut<'a> {
    /// Split into the first `ports` ports and the rest.
    pub fn split_at_mut(self, ports: usize) -> (Self, Self) {
        let Self {
            capacity,
            ready_offset,
            len,
            head,
            ready_at,
            vacate_at,
            slots,
        } = self;
        let (len, len_rest) = len.split_at_mut(ports);
        let (head, head_rest) = head.split_at_mut(ports);
        let (ready_at, ready_rest) = ready_at.split_at_mut(ports);
        let (vacate_at, vacate_rest) = vacate_at.split_at_mut(ports);
        let (slots, slots_rest) = slots.split_at_mut(ports * capacity);
        let view = |len, head, ready_at, vacate_at, slots| Self {
            capacity,
            ready_offset,
            len,
            head,
            ready_at,
            vacate_at,
            slots,
        };
        (
            view(len, head, ready_at, vacate_at, slots),
            view(len_rest, head_rest, ready_rest, vacate_rest, slots_rest),
        )
    }

    /// Number of ports in the view.
    pub fn ports(&self) -> usize {
        self.len.len()
    }

    /// Whether port `p` can accept a new packet (or reservation).
    pub fn has_space(&self, p: usize) -> bool {
        (self.len[p] as usize) < self.capacity
    }

    /// The cycle port `p`'s ungranted front may first request its output,
    /// or [`NEVER`] (empty port or granted front).
    pub fn ready_at(&self, p: usize) -> u64 {
        self.ready_at[p]
    }

    /// Port `p`'s front packet if it is ready to request its output this
    /// cycle: present, not yet granted, and its head (cut-through) or tail
    /// (store-and-forward) has arrived.
    pub fn requesting_head(&self, p: usize, now: u64) -> Option<PacketRef> {
        (self.ready_at[p] <= now).then(|| self.slots[self.front_index(p)].packet)
    }

    /// Accept a packet (reservation) at port `p` whose head arrives at
    /// `head_arrival`.
    ///
    /// # Panics
    /// Panics if the port is full. Callers check [`InputsMut::has_space`]
    /// or the occupancy snapshot first, so a full port means broken
    /// back-pressure; the fixed ring would otherwise overwrite a packet.
    pub fn push(&mut self, p: usize, packet: PacketRef, head_arrival: u64) {
        assert!(self.has_space(p), "push into a full input port");
        let mut tail = self.head[p] as usize + self.len[p] as usize;
        if tail >= self.capacity {
            tail -= self.capacity;
        }
        self.slots[p * self.capacity + tail] = Slot {
            packet,
            head_arrival,
            vacate_at: NEVER,
        };
        self.len[p] += 1;
        if self.len[p] == 1 {
            self.ready_at[p] = head_arrival + self.ready_offset;
        }
    }

    /// Free port `p`'s front slot if its tail has fully left the buffer
    /// by `now`. Returns whether a slot was freed (only a front can be
    /// granted, so at most one per cycle).
    pub fn vacate(&mut self, p: usize, now: u64) -> bool {
        if self.vacate_at[p] > now {
            return false;
        }
        self.pop_front(p);
        true
    }

    /// Vacate every port and copy the resulting occupancies into `occ`
    /// (one slot per port). Returns how many slots were freed (the
    /// profiler's "advance" op count).
    pub fn vacate_all(&mut self, now: u64, occ: &mut [u32]) -> u64 {
        let mut freed = 0;
        for p in 0..self.ports() {
            freed += u64::from(self.vacate(p, now));
        }
        occ.copy_from_slice(self.len);
        freed
    }

    /// Mark port `p`'s front slot granted; it will vacate at `vacate_at`
    /// and the packet moves on. Returns the packet ref for downstream
    /// insertion, or `None` if there is no eligible front slot (the port
    /// is empty or its head was already granted — an upstream arbitration
    /// error).
    #[must_use]
    pub fn grant_front(&mut self, p: usize, vacate_at: u64) -> Option<PacketRef> {
        if self.len[p] == 0 {
            return None;
        }
        let i = self.front_index(p);
        let front = &mut self.slots[i];
        debug_assert!(!front.granted(), "double grant on input port");
        if front.granted() {
            return None;
        }
        front.vacate_at = vacate_at;
        self.ready_at[p] = NEVER;
        self.vacate_at[p] = vacate_at;
        Some(front.packet)
    }

    /// Remove and return port `p`'s front packet without granting it — the
    /// fault path for a packet whose onward route is permanently severed.
    /// Returns `None` if the port is empty; debug-asserts the front was
    /// not already granted (a granted head is mid-transfer, not
    /// droppable).
    #[must_use]
    pub fn drop_front(&mut self, p: usize) -> Option<PacketRef> {
        if self.len[p] == 0 {
            return None;
        }
        let slot = self.slots[self.front_index(p)];
        debug_assert!(!slot.granted(), "dropped a granted (in-transfer) packet");
        self.pop_front(p);
        Some(slot.packet)
    }

    fn front_index(&self, p: usize) -> usize {
        p * self.capacity + self.head[p] as usize
    }

    /// Remove port `p`'s (non-empty) front and refresh its cached events
    /// from the new front, which is never granted.
    fn pop_front(&mut self, p: usize) {
        let next = self.head[p] + 1;
        self.head[p] = if next as usize == self.capacity {
            0
        } else {
            next
        };
        self.len[p] -= 1;
        self.vacate_at[p] = NEVER;
        self.ready_at[p] = if self.len[p] == 0 {
            NEVER
        } else {
            self.slots[self.front_index(p)].head_arrival + self.ready_offset
        };
    }
}

/// One module output port: the unit of circuit-held contention.
#[derive(Debug, Default)]
pub(crate) struct OutputPort {
    /// The output is held until this cycle (tail has passed).
    pub busy_until: u64,
    /// Round-robin pointer for arbitration.
    pub rr_next: u32,
}

impl OutputPort {
    /// Whether the output can accept a new circuit this cycle.
    pub fn free(&self, now: u64) -> bool {
        self.busy_until <= now
    }
}

/// One network stage: `module_count` crossbar modules of the stage's
/// radix, ports flattened module-major (see the module docs).
#[derive(Debug)]
pub(crate) struct Stage {
    pub radix: u32,
    pub module_count: u32,
    /// Input ports, module-major: port `m * radix + port`.
    pub inputs: InputPorts,
    /// Output ports, module-major: `outputs[m * radix + port]`.
    pub outputs: Vec<OutputPort>,
}

impl Stage {
    /// An empty stage of `module_count` radix-`radix` modules whose inputs
    /// buffer `capacity` packets each (see [`InputPorts::new`] for
    /// `ready_offset`). Per-stage head latency lives in the engine's
    /// `StageMeta`, shared with the grant kernel.
    pub fn new(radix: u32, module_count: u32, capacity: u32, ready_offset: u64) -> Self {
        let ports = (radix * module_count) as usize;
        Self {
            radix,
            module_count,
            inputs: InputPorts::new(ports, capacity, ready_offset),
            outputs: (0..ports).map(|_| OutputPort::default()).collect(),
        }
    }

    /// Total packets buffered (or reserved) across the stage's inputs.
    pub fn occupancy(&self) -> u64 {
        self.inputs.occupancy(0..self.inputs.ports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn packet(id: u32) -> PacketRef {
        PacketRef(id)
    }

    #[test]
    fn ring_wraps_around_at_capacity_three() {
        let mut ports = InputPorts::new(2, 3, 0);
        let mut v = ports.view_mut();
        // Cycle through the ring several times on port 1; port 0 must not
        // be touched.
        let mut next = 0;
        let mut expected = VecDeque::new();
        for round in 0..5u64 {
            while v.has_space(1) {
                v.push(1, packet(next), round);
                expected.push_back(next);
                next += 1;
            }
            assert_eq!(v.len[1], 3);
            // Pop two via grant + vacate, leaving one to carry the wrap.
            for _ in 0..2 {
                let want = expected.pop_front().map(packet);
                assert_eq!(v.grant_front(1, round), want);
                assert!(v.vacate(1, round));
            }
        }
        assert_eq!(v.len[0], 0);
        assert_eq!(v.ready_at(0), NEVER);
        assert_eq!(ports.stale_front(), None);
        assert_eq!(
            ports.front(1).map(|s| s.packet),
            expected.front().copied().map(packet)
        );
    }

    #[test]
    fn space_accounting_includes_reservations() {
        let mut ports = InputPorts::new(1, 1, 0);
        let mut v = ports.view_mut();
        assert!(v.has_space(0));
        v.push(0, packet(0), 10); // reservation, head arrives later
        assert!(!v.has_space(0));
        let mut deep = InputPorts::new(1, 2, 0);
        let mut v = deep.view_mut();
        v.push(0, packet(0), 10);
        assert!(v.has_space(0));
        v.push(0, packet(1), 11);
        assert!(!v.has_space(0));
    }

    #[test]
    #[should_panic(expected = "full input port")]
    fn push_into_a_full_port_panics_instead_of_overwriting() {
        let mut ports = InputPorts::new(1, 2, 0);
        let mut v = ports.view_mut();
        v.push(0, packet(0), 0);
        v.push(0, packet(1), 0);
        v.push(0, packet(2), 0);
    }

    #[test]
    fn head_not_ready_until_arrival() {
        let mut ports = InputPorts::new(1, 1, 0);
        let mut v = ports.view_mut();
        v.push(0, packet(0), 10);
        assert!(v.requesting_head(0, 9).is_none());
        assert!(v.requesting_head(0, 10).is_some());
        // Store-and-forward: ready only after the tail (offset) arrives.
        let mut sf = InputPorts::new(1, 1, 24);
        let mut v = sf.view_mut();
        v.push(0, packet(0), 10);
        assert!(v.requesting_head(0, 10).is_none());
        assert_eq!(v.ready_at(0), 34);
        assert!(v.requesting_head(0, 34).is_some());
    }

    #[test]
    fn grant_and_drop_refresh_cached_fronts() {
        let mut ports = InputPorts::new(1, 2, 3);
        let mut v = ports.view_mut();
        v.push(0, packet(0), 5);
        v.push(0, packet(1), 7);
        assert_eq!((v.ready_at(0), v.vacate_at[0]), (8, NEVER));
        // Granting the front hides the slot behind it until it vacates.
        assert_eq!(v.grant_front(0, 20), Some(packet(0)));
        assert_eq!((v.ready_at(0), v.vacate_at[0]), (NEVER, 20));
        assert!(v.requesting_head(0, 30).is_none());
        assert!(!v.vacate(0, 19));
        assert!(v.vacate(0, 20));
        assert_eq!((v.ready_at(0), v.vacate_at[0]), (10, NEVER));
        // Dropping the ungranted front empties the port.
        assert_eq!(v.drop_front(0), Some(packet(1)));
        assert_eq!((v.ready_at(0), v.vacate_at[0]), (NEVER, NEVER));
        assert_eq!(ports.stale_front(), None);
    }

    #[test]
    fn drop_front_exposes_the_next_head() {
        let mut ports = InputPorts::new(1, 2, 0);
        let mut v = ports.view_mut();
        v.push(0, packet(3), 0);
        v.push(0, packet(4), 0);
        assert_eq!(v.drop_front(0), Some(packet(3)));
        assert_eq!(v.requesting_head(0, 0), Some(packet(4)));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut ports = InputPorts::new(1, 2, 0);
        let mut v = ports.view_mut();
        v.push(0, packet(0), 0);
        v.push(0, packet(1), 0);
        assert_eq!(v.requesting_head(0, 0), Some(packet(0)));
        assert_eq!(v.grant_front(0, 5), Some(packet(0)));
        // Second packet cannot request while the first still drains.
        assert!(v.requesting_head(0, 3).is_none());
        assert!(v.vacate(0, 5));
        assert_eq!(v.requesting_head(0, 5), Some(packet(1)));
    }

    #[test]
    fn split_views_are_disjoint_and_index_local() {
        let mut ports = InputPorts::new(6, 2, 0);
        let (mut a, rest) = ports.view_mut().split_at_mut(2);
        let (mut b, mut c) = rest.split_at_mut(3);
        assert_eq!((a.ports(), b.ports(), c.ports()), (2, 3, 1));
        a.push(1, packet(10), 0);
        b.push(0, packet(20), 0);
        c.push(0, packet(30), 0);
        c.push(0, packet(31), 0);
        assert_eq!(b.grant_front(0, 4), Some(packet(20)));
        // Local index 0 of `b` is global port 2; of `c`, global port 5.
        let lens = ports.len.clone();
        assert_eq!(lens, vec![0, 1, 1, 0, 0, 2]);
        assert_eq!(ports.front(2).map(Slot::granted), Some(true));
        assert_eq!(ports.front(5).map(|s| s.packet), Some(packet(30)));
        assert_eq!(ports.ungranted(), 3);
        assert_eq!(ports.stale_front(), None);
        let mut occ = vec![9; 6];
        assert_eq!(ports.view_mut().vacate_all(4, &mut occ), 1);
        assert_eq!(occ, vec![0, 1, 0, 0, 0, 2]);
    }

    #[test]
    fn output_busy_window() {
        let mut out = OutputPort::default();
        assert!(out.free(0));
        out.busy_until = 7;
        assert!(!out.free(6));
        assert!(out.free(7));
    }

    #[test]
    fn flat_stage_layout_is_module_major() {
        let stage = Stage::new(4, 3, 2, 0);
        assert_eq!(stage.inputs.ports(), 12);
        assert_eq!(stage.inputs.slots.len(), 24);
        assert_eq!(stage.outputs.len(), 12);
        assert_eq!(stage.occupancy(), 0);
    }

    #[test]
    fn grant_and_drop_on_empty_port_return_none() {
        let mut ports = InputPorts::new(1, 1, 0);
        let mut v = ports.view_mut();
        assert_eq!(v.grant_front(0, 1), None);
        assert_eq!(v.drop_front(0), None);
    }

    /// One step of a random slab workout.
    #[derive(Debug)]
    enum Op {
        Push { port: usize, arrival_delta: u64 },
        Grant { port: usize, drain: u64 },
        Drop { port: usize },
        Tick,
    }

    /// Decode one random word into an op over `ports` ports.
    fn op(word: u64, ports: usize) -> Op {
        let port = (word >> 2) as usize % ports;
        let arg = (word >> 8) % 4;
        match word % 4 {
            0 => Op::Push {
                port,
                arrival_delta: arg,
            },
            1 => Op::Grant { port, drain: arg },
            2 => Op::Drop { port },
            _ => Op::Tick,
        }
    }

    /// The reference model: one `VecDeque` per port, the layout the slab
    /// replaced, with the same grant/vacate/drop rules spelled out plainly.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct RefSlot {
        packet: u32,
        head_arrival: u64,
        granted_until: Option<u64>,
    }

    proptest! {
        #[test]
        fn slab_matches_a_vecdeque_reference(
            capacity in 1u32..=8,
            ready_offset in 0u64..3,
            words in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let ports = 4;
            let mut slab = InputPorts::new(ports, capacity, ready_offset);
            let mut model: Vec<VecDeque<RefSlot>> = vec![VecDeque::new(); ports];
            let mut now = 0u64;
            let mut next = 0u32;
            for word in words {
                let mut v = slab.view_mut();
                match op(word, ports) {
                    Op::Push { port, arrival_delta } => {
                        let fits = model[port].len() < capacity as usize;
                        prop_assert_eq!(v.has_space(port), fits);
                        if fits {
                            v.push(port, packet(next), now + arrival_delta);
                            model[port].push_back(RefSlot {
                                packet: next,
                                head_arrival: now + arrival_delta,
                                granted_until: None,
                            });
                            next += 1;
                        }
                    }
                    Op::Grant { port, drain } => {
                        let want = match model[port].front_mut() {
                            Some(front) if front.granted_until.is_none()
                                && front.head_arrival + ready_offset <= now =>
                            {
                                front.granted_until = Some(now + drain);
                                Some(packet(front.packet))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(v.requesting_head(port, now), want);
                        if want.is_some() {
                            prop_assert_eq!(v.grant_front(port, now + drain), want);
                        }
                    }
                    Op::Drop { port } => {
                        let droppable = model[port]
                            .front()
                            .is_some_and(|f| f.granted_until.is_none());
                        if droppable {
                            let want = model[port].pop_front().map(|s| packet(s.packet));
                            prop_assert_eq!(v.drop_front(port), want);
                        }
                    }
                    Op::Tick => {
                        now += 1;
                        let mut freed = 0;
                        for q in &mut model {
                            while q.front().is_some_and(|f| {
                                f.granted_until.is_some_and(|t| t <= now)
                            }) {
                                q.pop_front();
                                freed += 1;
                            }
                        }
                        let mut occ = vec![0; ports];
                        prop_assert_eq!(v.vacate_all(now, &mut occ), freed);
                        let lens: Vec<u32> = model.iter().map(|q| q.len() as u32).collect();
                        prop_assert_eq!(occ, lens);
                    }
                }
                prop_assert_eq!(slab.stale_front(), None);
                for (p, q) in model.iter().enumerate() {
                    prop_assert_eq!(slab.len[p] as usize, q.len());
                    let front = slab.front(p).map(|s| RefSlot {
                        packet: s.packet.0,
                        head_arrival: s.head_arrival,
                        granted_until: s.granted().then_some(s.vacate_at),
                    });
                    prop_assert_eq!(front, q.front().copied());
                }
            }
        }
    }
}
