//! Memory zones and the buddy allocator.
//!
//! Zones mirror the Linux physical memory zones the paper builds on:
//! `ZONE_NORMAL` for boot memory, `ZONE_MOVABLE` for hot-plugged memory
//! (§2.2), and — the paper's contribution — one extra zone per Squeezy
//! partition ("We implement Squeezy partitions as different zones (zone
//! structs), similar to ZONE_MOVABLE", §4.1).
//!
//! Each zone owns per-order intrusive free lists threaded through the
//! [`PageDesc`] words, exactly like the kernel's
//! `free_area[]`, giving O(1) allocation, free and buddy merging.

use mem_types::{FrameRange, Gfn};

use crate::memmap::MemMap;
use crate::page::{PageDesc, PageState, MAX_ORDER, NIL};

/// What a zone is used for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ZoneKind {
    /// Boot memory serving kernel and fallback user allocations.
    Normal,
    /// Hot-plugged memory for movable allocations (`ZONE_MOVABLE`).
    Movable,
    /// A Squeezy private partition dedicated to one function instance.
    SqueezyPrivate {
        /// Partition id (assigned by the Squeezy layer).
        partition: u32,
    },
    /// The per-VM shared Squeezy partition backing file mappings.
    SqueezyShared,
}

/// A memory zone: a contiguous span of guest frames with buddy free lists.
pub struct Zone {
    /// Index of this zone in the `GuestMm` zone table.
    pub id: u8,
    /// Purpose of the zone.
    pub kind: ZoneKind,
    /// The guest-physical span the zone may ever cover.
    pub span: FrameRange,
    /// Head frame of the free list per order ([`NIL`] when empty).
    free_heads: [u32; MAX_ORDER as usize + 1],
    /// Number of free pages currently in the buddy lists.
    pub free_pages: u64,
    /// Number of pages currently onlined into this zone.
    pub managed_pages: u64,
}

impl Zone {
    /// Creates an empty zone covering `span`.
    pub fn new(id: u8, kind: ZoneKind, span: FrameRange) -> Self {
        Zone {
            id,
            kind,
            span,
            free_heads: [NIL; MAX_ORDER as usize + 1],
            free_pages: 0,
            managed_pages: 0,
        }
    }

    /// Returns the number of pages in use (`managed - free`).
    pub fn used_pages(&self) -> u64 {
        self.managed_pages - self.free_pages
    }

    /// Returns `true` if no free list holds any block.
    pub fn buddy_is_empty(&self) -> bool {
        self.free_heads.iter().all(|&h| h == NIL)
    }

    /// Unlinks free block `head` (of `order`) from its free list.
    fn unlink(&mut self, mm: &mut MemMap, head: Gfn, order: u8) {
        let (prev, next) = {
            let d = mm.page(head);
            debug_assert_eq!(d.state, PageState::FreeHead);
            debug_assert_eq!(d.order, order);
            debug_assert_eq!(d.zone, self.id);
            (d.a, d.b)
        };
        if prev == NIL {
            self.free_heads[order as usize] = next;
        } else {
            mm.page_mut(Gfn(prev as u64)).b = next;
        }
        if next != NIL {
            mm.page_mut(Gfn(next as u64)).a = prev;
        }
    }

    /// Links `head` as a free block of `order` at the front of its list.
    ///
    /// The head page's state becomes `FreeHead`; interior pages must
    /// already be `FreeTail` (callers arrange this).
    fn link(&mut self, mm: &mut MemMap, head: Gfn, order: u8) {
        let old = self.free_heads[order as usize];
        {
            let d = mm.page_mut(head);
            d.state = PageState::FreeHead;
            d.order = order;
            d.zone = self.id;
            d.a = NIL;
            d.b = old;
        }
        if old != NIL {
            mm.page_mut(Gfn(old as u64)).a = head.0 as u32;
        }
        self.free_heads[order as usize] = head.0 as u32;
    }

    /// Frees the 2^`order` pages starting at `head` into the buddy,
    /// merging with free buddies as far as possible.
    ///
    /// All pages in the range must currently be non-free (just-released
    /// allocations, isolated pages being rolled back, or pages being
    /// onlined); their states are overwritten.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `head` is not `order`-aligned.
    pub fn free_block(&mut self, mm: &mut MemMap, head: Gfn, order: u8) {
        debug_assert_eq!(head.0 & ((1 << order) - 1), 0, "misaligned free");
        debug_assert!(order <= MAX_ORDER);
        // Mark the whole range as free interior pages first (one
        // sequential descriptor fill); the final head is promoted at
        // the end. `order` is meaningful only on `FreeHead` pages and
        // `flags` is a spare byte, so a uniform fill is exact.
        #[cfg(debug_assertions)]
        for d in mm.range_mut(FrameRange::new(head, 1 << order)) {
            debug_assert!(!d.state.is_free(), "double free near {head:?}");
        }
        mm.range_mut(FrameRange::new(head, 1 << order))
            .fill(PageDesc {
                state: PageState::FreeTail,
                order: 0,
                zone: self.id,
                flags: 0,
                a: NIL,
                b: NIL,
            });
        self.free_pages += 1 << order;

        let mut head = head;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = Gfn(head.0 ^ (1u64 << order));
            if !self.span.contains(buddy) {
                break;
            }
            let bd = *mm.page(buddy);
            if bd.state != PageState::FreeHead || bd.order != order || bd.zone != self.id {
                break;
            }
            self.unlink(mm, buddy, order);
            mm.page_mut(buddy).state = PageState::FreeTail;
            head = Gfn(head.0.min(buddy.0));
            order += 1;
        }
        self.link(mm, head, order);
    }

    /// Frees the `len` contiguous pages starting at `head`, decomposed
    /// into maximal naturally-aligned power-of-two chunks in ascending
    /// address order.
    ///
    /// Exactly equivalent to `len` sequential order-0 [`Zone::free_block`]
    /// calls over `head..head+len`: eager buddy merging is confluent (the
    /// final free lists are the canonical maximal merge of the free page
    /// set), adjacent chunks of a maximal decomposition are never buddies,
    /// and each chunk completes — and is therefore linked — in the same
    /// ascending order the per-page path would link it, so even the
    /// intra-list ordering matches.
    pub fn free_run(&mut self, mm: &mut MemMap, head: Gfn, len: u64) {
        let mut g = head.0;
        let end = head.0 + len;
        while g < end {
            let align = if g == 0 {
                MAX_ORDER
            } else {
                (g.trailing_zeros() as u8).min(MAX_ORDER)
            };
            let fit = (63 - (end - g).leading_zeros()) as u8;
            let order = align.min(fit);
            self.free_block(mm, Gfn(g), order);
            g += 1 << order;
        }
    }

    /// Allocates a contiguous 2^`order` block, splitting larger blocks as
    /// needed. Returns the head frame, with every page in the block left
    /// in `FreeTail` state for the caller to claim, or `None` if the zone
    /// cannot satisfy the request.
    pub fn alloc_block(&mut self, mm: &mut MemMap, order: u8) -> Option<Gfn> {
        let mut have = None;
        for o in order..=MAX_ORDER {
            if self.free_heads[o as usize] != NIL {
                have = Some(o);
                break;
            }
        }
        let mut o = have?;
        let head = Gfn(self.free_heads[o as usize] as u64);
        self.unlink(mm, head, o);
        mm.page_mut(head).state = PageState::FreeTail;
        // Split down, freeing upper halves.
        while o > order {
            o -= 1;
            let upper = Gfn(head.0 + (1 << o));
            self.link(mm, upper, o);
        }
        self.free_pages -= 1 << order;
        Some(head)
    }

    /// Allocates a contiguous run of up to `want` pages with one buddy
    /// operation. Returns the head frame and run length, with every page
    /// left in `FreeTail` state for the caller to claim, or `None` if the
    /// zone is empty.
    ///
    /// Exactly equivalent to draining the run via repeated
    /// `alloc_block(mm, 0)` calls: order-0 allocation always consumes
    /// the smallest free block, and because splitting links the upper
    /// halves into the (empty) lower-order lists, it consumes that block
    /// *sequentially* — head, head+1, … — before touching any other
    /// block. Taking the whole block at once therefore yields the same
    /// pages in the same order and the same final free-list state, while
    /// skipping the per-page split/link churn. A block bigger than
    /// `want` is consumed one page at a time (the ordinary split path),
    /// so partial consumption also matches the sequential sequence.
    pub fn alloc_run(&mut self, mm: &mut MemMap, want: u64) -> Option<(Gfn, u64)> {
        debug_assert!(want > 0);
        let mut have = None;
        for o in 0..=MAX_ORDER {
            if self.free_heads[o as usize] != NIL {
                have = Some(o);
                break;
            }
        }
        let o = have?;
        if (1u64 << o) > want {
            return self.alloc_block(mm, 0).map(|g| (g, 1));
        }
        let head = Gfn(self.free_heads[o as usize] as u64);
        self.unlink(mm, head, o);
        mm.page_mut(head).state = PageState::FreeTail;
        self.free_pages -= 1 << o;
        Some((head, 1 << o))
    }

    /// Carves a specific free page `g` out of the buddy (the isolation
    /// primitive used by the offlining path). The page is left in
    /// `FreeTail` state for the caller to claim.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not currently free in this zone.
    pub fn take_free_page(&mut self, mm: &mut MemMap, g: Gfn) {
        assert!(mm.state(g).is_free(), "page {g:?} is not free");
        let (head, order) = mm.free_block_head(g);
        debug_assert_eq!(mm.page(head).zone, self.id, "page in wrong zone");
        self.unlink(mm, head, order);
        mm.page_mut(head).state = PageState::FreeTail;
        // Repeatedly halve, keeping the half containing `g` out of the
        // lists and freeing the other half.
        let mut head = head;
        let mut order = order;
        while order > 0 {
            order -= 1;
            let upper = Gfn(head.0 + (1 << order));
            if g.0 >= upper.0 {
                self.link(mm, head, order);
                head = upper;
            } else {
                self.link(mm, upper, order);
            }
        }
        debug_assert_eq!(head, g);
        self.free_pages -= 1;
    }

    /// Isolates an entirely-free page range, unlinking whole buddy
    /// chunks and marking every page [`PageState::Isolated`] in one
    /// descriptor sweep per chunk.
    ///
    /// `range` must be MAX_ORDER-aligned at both ends and contain only
    /// free pages of this zone; buddy chunks never straddle such a
    /// boundary, so every chunk touching the range lies wholly inside
    /// it. Equivalent to [`Zone::take_free_page`] on every page (the
    /// per-page path's intermediate splits only ever link and unlink
    /// chunks inside the range, all of which are gone at the end, so
    /// the surviving free lists match exactly).
    pub fn isolate_free_range(&mut self, mm: &mut MemMap, range: FrameRange) {
        debug_assert_eq!(range.start.0 & ((1 << MAX_ORDER) - 1), 0);
        debug_assert_eq!(range.count & ((1 << MAX_ORDER) - 1), 0);
        let mut g = range.start.0;
        let end = range.start.0 + range.count;
        while g < end {
            let d = *mm.page(Gfn(g));
            debug_assert_eq!(d.state, PageState::FreeHead, "free walk off a chunk head");
            debug_assert_eq!(d.zone, self.id, "page in wrong zone");
            let order = d.order;
            self.unlink(mm, Gfn(g), order);
            mm.range_mut(FrameRange::new(Gfn(g), 1 << order))
                .fill(PageDesc {
                    state: PageState::Isolated,
                    order: 0,
                    zone: self.id,
                    flags: 0,
                    a: NIL,
                    b: NIL,
                });
            g += 1 << order;
        }
        self.free_pages -= range.count;
    }

    /// Returns the number of free blocks currently on the `order` list
    /// (O(list length); used by tests and fragmentation metrics).
    pub fn free_list_len(&self, mm: &MemMap, order: u8) -> usize {
        let mut n = 0;
        let mut cur = self.free_heads[order as usize];
        while cur != NIL {
            n += 1;
            cur = mm.page(Gfn(cur as u64)).b;
        }
        n
    }

    /// Returns the head frames of every free chunk of order at least
    /// `min_order`, in address order — what a free-page-reporting scan
    /// walks.
    pub fn free_chunks(&self, mm: &MemMap, min_order: u8) -> Vec<(Gfn, u8)> {
        let mut out = Vec::new();
        for order in min_order..=MAX_ORDER {
            let mut cur = self.free_heads[order as usize];
            while cur != NIL {
                out.push((Gfn(cur as u64), order));
                cur = mm.page(Gfn(cur as u64)).b;
            }
        }
        out.sort_unstable_by_key(|&(g, _)| g.0);
        out
    }

    /// Debug validation: walks every free list and checks link integrity,
    /// state consistency and the free-page count.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    pub fn assert_consistent(&self, mm: &MemMap) {
        let mut counted = 0u64;
        for order in 0..=MAX_ORDER {
            let mut prev = NIL;
            let mut cur = self.free_heads[order as usize];
            while cur != NIL {
                let g = Gfn(cur as u64);
                let d = mm.page(g);
                assert_eq!(d.state, PageState::FreeHead, "list node not a head");
                assert_eq!(d.order, order, "order mismatch");
                assert_eq!(d.zone, self.id, "zone mismatch");
                assert_eq!(d.a, prev, "broken prev link");
                assert_eq!(g.0 & ((1 << order) - 1), 0, "misaligned block");
                for t in g.0 + 1..g.0 + (1 << order) {
                    assert_eq!(
                        mm.state(Gfn(t)),
                        PageState::FreeTail,
                        "interior page {t:#x} not FreeTail"
                    );
                }
                counted += 1 << order;
                prev = cur;
                cur = d.b;
            }
        }
        assert_eq!(counted, self.free_pages, "free_pages count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(span_pages: u64) -> (MemMap, Zone) {
        let mm = MemMap::new(span_pages);
        let zone = Zone::new(0, ZoneKind::Normal, FrameRange::new(Gfn(0), span_pages));
        (mm, zone)
    }

    /// Onlines `pages` frames into the zone as max-order chunks.
    fn fill(mm: &mut MemMap, zone: &mut Zone, pages: u64) {
        assert_eq!(pages % (1 << MAX_ORDER), 0);
        let chunk = 1u64 << MAX_ORDER;
        let mut g = 0;
        while g < pages {
            // Pages start Absent; free_block overwrites states.
            zone.free_block(mm, Gfn(g), MAX_ORDER);
            g += chunk;
        }
        zone.managed_pages += pages;
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let (mut mm, mut zone) = make(2048);
        fill(&mut mm, &mut zone, 2048);
        assert_eq!(zone.free_pages, 2048);
        zone.assert_consistent(&mm);

        let p = zone.alloc_block(&mut mm, 0).unwrap();
        assert_eq!(zone.free_pages, 2047);
        mm.page_mut(p).state = PageState::Anon;
        zone.assert_consistent(&mm);

        mm.page_mut(p).state = PageState::Isolated; // any non-free state
        zone.free_block(&mut mm, p, 0);
        assert_eq!(zone.free_pages, 2048);
        zone.assert_consistent(&mm);
        // Everything merged back to max order.
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 2);
        for o in 0..MAX_ORDER {
            assert_eq!(zone.free_list_len(&mm, o), 0, "order {o} not merged");
        }
    }

    #[test]
    fn split_produces_correct_orders() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let _p = zone.alloc_block(&mut mm, 0).unwrap();
        // One order-10 block split into 0..=9 remainders.
        for o in 0..MAX_ORDER {
            assert_eq!(zone.free_list_len(&mm, o), 1, "order {o}");
        }
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 0);
        assert_eq!(zone.free_pages, 1023);
        zone.assert_consistent(&mm);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        for _ in 0..1024 {
            let g = zone.alloc_block(&mut mm, 0).unwrap();
            mm.page_mut(g).state = PageState::Anon;
        }
        assert_eq!(zone.free_pages, 0);
        assert!(zone.alloc_block(&mut mm, 0).is_none());
        assert!(zone.buddy_is_empty());
    }

    #[test]
    fn higher_order_alloc() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let g = zone.alloc_block(&mut mm, 4).unwrap();
        assert_eq!(g.0 & 15, 0, "order-4 block is 16-page aligned");
        assert_eq!(zone.free_pages, 1024 - 16);
        zone.assert_consistent(&mm);
    }

    #[test]
    fn take_free_page_carves_target() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let target = Gfn(777);
        zone.take_free_page(&mut mm, target);
        assert_eq!(zone.free_pages, 1023);
        assert_eq!(mm.state(target), PageState::FreeTail);
        mm.page_mut(target).state = PageState::Isolated;
        zone.assert_consistent(&mm);
        // Freeing it back restores full merge.
        zone.free_block(&mut mm, target, 0);
        assert_eq!(zone.free_pages, 1024);
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 1);
        zone.assert_consistent(&mm);
    }

    #[test]
    fn take_every_page_one_by_one() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        for g in 0..1024 {
            zone.take_free_page(&mut mm, Gfn(g));
            mm.page_mut(Gfn(g)).state = PageState::Isolated;
        }
        assert_eq!(zone.free_pages, 0);
        assert!(zone.buddy_is_empty());
        zone.assert_consistent(&mm);
    }

    #[test]
    fn free_chunks_reflect_buddy_state() {
        let (mut mm, mut zone) = make(4096);
        fill(&mut mm, &mut zone, 4096);
        // Fully merged: four order-10 chunks, in address order.
        let chunks = zone.free_chunks(&mm, 9);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(chunks.iter().all(|&(_, o)| o == MAX_ORDER));
        // An order-0 allocation splits one chunk: the order-9 remainder
        // appears, the order-10 count drops.
        let g = zone.alloc_block(&mut mm, 0).unwrap();
        mm.page_mut(g).state = PageState::Anon;
        let chunks = zone.free_chunks(&mm, 9);
        assert_eq!(chunks.iter().filter(|&&(_, o)| o == MAX_ORDER).count(), 3);
        assert_eq!(chunks.iter().filter(|&&(_, o)| o == 9).count(), 1);
        // Below the threshold nothing of order < 9 is reported.
        assert!(chunks.iter().all(|&(_, o)| o >= 9));
        // Freeing restores the fully merged view.
        zone.free_block(&mut mm, g, 0);
        assert_eq!(zone.free_chunks(&mm, 9).len(), 4);
    }

    #[test]
    fn merge_does_not_cross_span() {
        // Zone covering only the upper half of a would-be order-10 pair:
        // merging must stop at the span edge.
        let mm = MemMap::new(2048);
        let mut mm = mm;
        let mut zone = Zone::new(0, ZoneKind::Normal, FrameRange::new(Gfn(1024), 1024));
        zone.free_block(&mut mm, Gfn(1024), MAX_ORDER);
        zone.managed_pages += 1024;
        zone.assert_consistent(&mm);
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 1);
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn take_used_page_panics() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let g = zone.alloc_block(&mut mm, 0).unwrap();
        mm.page_mut(g).state = PageState::Anon;
        zone.take_free_page(&mut mm, g);
    }

    #[test]
    fn alloc_run_matches_sequential_order_zero_allocs() {
        // Drive two identical zones through mixed run/free traffic; the
        // run path must produce the same page sequence and the same
        // buddy state as repeated order-0 allocation.
        let (mut mm_a, mut za) = make(4096);
        let (mut mm_b, mut zb) = make(4096);
        fill(&mut mm_a, &mut za, 4096);
        fill(&mut mm_b, &mut zb, 4096);
        let mut x = 0xDEAD_BEEFu64;
        let mut held: Vec<Gfn> = Vec::new();
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(4) && !held.is_empty() {
                // Free a pseudo-random page from both zones alike.
                let idx = (x as usize / 5) % held.len();
                let g = held.swap_remove(idx);
                za.free_block(&mut mm_a, g, 0);
                zb.free_block(&mut mm_b, g, 0);
                continue;
            }
            // Allocate a run of 1..=100 pages via both paths.
            let mut want = 1 + (x / 3) % 100;
            let mut run_pages = Vec::new();
            while want > 0 {
                let Some((head, len)) = za.alloc_run(&mut mm_a, want) else {
                    break;
                };
                for g in head.0..head.0 + len {
                    mm_a.page_mut(Gfn(g)).state = PageState::Anon;
                    run_pages.push(Gfn(g));
                }
                want -= len;
            }
            let seq_pages: Vec<Gfn> = (0..run_pages.len())
                .map(|_| {
                    let g = zb.alloc_block(&mut mm_b, 0).unwrap();
                    mm_b.page_mut(g).state = PageState::Anon;
                    g
                })
                .collect();
            assert_eq!(run_pages, seq_pages, "allocation sequence must match");
            held.extend(run_pages);
        }
        assert_eq!(za.free_pages, zb.free_pages);
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        // Identical free-list structure, not just counts.
        for o in 0..=MAX_ORDER {
            assert_eq!(
                za.free_list_len(&mm_a, o),
                zb.free_list_len(&mm_b, o),
                "order {o} free list diverged"
            );
        }
        assert_eq!(za.free_chunks(&mm_a, 0), zb.free_chunks(&mm_b, 0));
    }

    #[test]
    fn free_run_matches_sequential_order_zero_frees() {
        // Drive two identical zones: one frees whole runs via
        // `free_run`, the other frees the same pages one at a time.
        // Buddy merging must land in the same canonical state either
        // way, down to intra-list ordering.
        let (mut mm_a, mut za) = make(4096);
        let (mut mm_b, mut zb) = make(4096);
        fill(&mut mm_a, &mut za, 4096);
        fill(&mut mm_b, &mut zb, 4096);
        let mut x = 0xC0FF_EE00u64;
        let mut held: Vec<(Gfn, u64)> = Vec::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(3) && !held.is_empty() {
                let idx = (x as usize / 5) % held.len();
                let (head, len) = held.swap_remove(idx);
                za.free_run(&mut mm_a, head, len);
                for g in head.0..head.0 + len {
                    zb.free_block(&mut mm_b, Gfn(g), 0);
                }
                continue;
            }
            // Allocate the same runs from both zones to stay in sync.
            let want = 1 + (x / 3) % 200;
            if let Some((head, len)) = za.alloc_run(&mut mm_a, want) {
                let (hb, lb) = zb.alloc_run(&mut mm_b, want).unwrap();
                assert_eq!((head, len), (hb, lb));
                for g in head.0..head.0 + len {
                    mm_a.page_mut(Gfn(g)).state = PageState::Anon;
                    mm_b.page_mut(Gfn(g)).state = PageState::Anon;
                }
                held.push((head, len));
            }
        }
        // Drain everything still held so the whole zone is exercised.
        for (head, len) in held {
            za.free_run(&mut mm_a, head, len);
            for g in head.0..head.0 + len {
                zb.free_block(&mut mm_b, Gfn(g), 0);
            }
        }
        assert_eq!(za.free_pages, zb.free_pages);
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        for o in 0..=MAX_ORDER {
            assert_eq!(
                za.free_chunks(&mm_a, o),
                zb.free_chunks(&mm_b, o),
                "order {o} free list diverged"
            );
        }
    }

    #[test]
    fn isolate_free_range_matches_per_page_takes() {
        // Fragment two identical zones the same way, then isolate the
        // same fully-free MAX_ORDER-aligned range: bulk chunk unlinking
        // must leave the same free lists as per-page carving.
        let (mut mm_a, mut za) = make(8192);
        let (mut mm_b, mut zb) = make(8192);
        fill(&mut mm_a, &mut za, 8192);
        fill(&mut mm_b, &mut zb, 8192);
        let mut x = 0x5EED_5EEDu64;
        // Allocate scattered pages outside [2048, 4096) so the target
        // range stays free but the surrounding buddy state is ragged.
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (ga, gb) = (
                za.alloc_block(&mut mm_a, 0).unwrap(),
                zb.alloc_block(&mut mm_b, 0).unwrap(),
            );
            assert_eq!(ga, gb);
            mm_a.page_mut(ga).state = PageState::Anon;
            mm_b.page_mut(gb).state = PageState::Anon;
            if (2048..4096).contains(&ga.0) {
                // Give the page back if it landed in the target range.
                za.free_block(&mut mm_a, ga, 0);
                zb.free_block(&mut mm_b, gb, 0);
            } else if x.is_multiple_of(5) {
                za.free_block(&mut mm_a, ga, 0);
                zb.free_block(&mut mm_b, gb, 0);
            }
        }
        let range = FrameRange::new(Gfn(2048), 2048);
        za.isolate_free_range(&mut mm_a, range);
        for g in range.iter() {
            zb.take_free_page(&mut mm_b, g);
            mm_b.page_mut(g).state = PageState::Isolated;
        }
        assert_eq!(za.free_pages, zb.free_pages);
        for g in range.iter() {
            assert_eq!(mm_a.state(g), PageState::Isolated);
        }
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        for o in 0..=MAX_ORDER {
            assert_eq!(
                za.free_chunks(&mm_a, o),
                zb.free_chunks(&mm_b, o),
                "order {o} free list diverged"
            );
        }
    }

    #[test]
    fn interleaved_alloc_free_stays_consistent() {
        let (mut mm, mut zone) = make(4096);
        fill(&mut mm, &mut zone, 4096);
        let mut held = Vec::new();
        // Deterministic pseudo-random interleaving.
        let mut x = 0x12345678u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !x.is_multiple_of(3) || held.is_empty() {
                if let Some(g) = zone.alloc_block(&mut mm, 0) {
                    mm.page_mut(g).state = PageState::Anon;
                    held.push(g);
                }
            } else {
                let idx = (x as usize / 7) % held.len();
                let g = held.swap_remove(idx);
                zone.free_block(&mut mm, g, 0);
            }
        }
        zone.assert_consistent(&mm);
        for g in held {
            zone.free_block(&mut mm, g, 0);
        }
        zone.assert_consistent(&mm);
        assert_eq!(zone.free_pages, 4096);
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 4);
    }
}
