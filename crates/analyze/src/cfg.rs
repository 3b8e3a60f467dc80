//! Disassembly and CFG recovery over FDL images.
//!
//! Two classic passes over every executable section:
//!
//! 1. **Recursive descent** from the image entry point and every export
//!    whose VA lands in code, following direct control flow (`jmp`/`jcc`/
//!    `call` targets plus fall-through). Everything found here is
//!    *reachable* code.
//! 2. **Linear sweep** over the bytes the descent never visited, decoding
//!    greedily and resynchronizing on decode errors. Everything found only
//!    here is *sweep* code — possibly data, possibly functions reached
//!    exclusively through indirect calls.
//!
//! Instructions are then grouped into basic blocks at the usual leaders
//! (roots, branch targets, instructions following a block-ender), mirroring
//! the dynamic notion of a block in `Instr::ends_block`, so static block
//! starts and replay-observed block starts live in the same vocabulary.
//!
//! Both passes record what they find in one dense table indexed by code
//! offset: the image's executable bytes are cut once into VA-sorted spans
//! (each byte owned by the first section in image order that contains it,
//! the rule of `FdlImage::section_containing`), so no per-byte section
//! lookup or ordered-map insert remains. Each byte is decoded at most once.
//! A `0x00` byte is a 1-byte `nop` and never reaches the decoder: the sweep
//! takes a whole zero run in one step, and so does descent when the run is
//! its only pending work. Padding is still charted: its blocks hold their
//! `nop`s and [`ModuleCfg::accounts_for`] answers for every padding byte.

use faros_emu::encode::decode_at;
use faros_emu::isa::Instr;
use faros_kernel::module::FdlImage;
use std::collections::{BTreeMap, VecDeque};
use std::ops::AddAssign;

/// One recovered basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// VA of the first instruction.
    pub start: u32,
    /// One past the last instruction byte.
    pub end: u32,
    /// The block's instructions, in address order.
    pub instrs: Vec<(u32, Instr)>,
    /// Statically known successor block-start VAs (direct targets and
    /// fall-throughs; empty for `ret`/`hlt`/indirect jumps).
    pub succs: Vec<u32>,
    /// Found by recursive descent (`true`) or only by the linear sweep.
    pub reachable: bool,
}

impl BasicBlock {
    /// Returns `true` if every instruction is a `nop` — section padding,
    /// not code worth reporting.
    pub fn is_padding(&self) -> bool {
        self.instrs.iter().all(|(_, i)| *i == Instr::Nop)
    }
}

/// An indirect control-flow site (`call reg` / `jmp reg`) — statically
/// unresolvable by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectSite {
    /// VA of the indirect instruction.
    pub va: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Whether recursive descent reached it.
    pub reachable: bool,
}

/// Deterministic work counters of one CFG recovery. They describe the
/// analysis, not the image, so they stay out of every report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Calls to the instruction decoder (`decode_at`), failed ones
    /// included. At most one per non-zero code byte.
    pub insns_decoded: u64,
    /// Zero bytes recorded as 1-byte `nop`s without calling the decoder.
    pub padding_bytes: u64,
}

impl AddAssign for DecodeStats {
    fn add_assign(&mut self, other: DecodeStats) {
        self.insns_decoded += other.insns_decoded;
        self.padding_bytes += other.padding_bytes;
    }
}

/// The static model of one module.
#[derive(Debug, Clone)]
pub struct ModuleCfg {
    /// Module name the model was built for.
    pub name: String,
    /// Recovered basic blocks, keyed by start VA.
    pub blocks: BTreeMap<u32, BasicBlock>,
    /// Direct call edges as `(call-site VA, callee VA)` pairs — the static
    /// call graph.
    pub call_edges: Vec<(u32, u32)>,
    /// Indirect control-flow sites.
    pub indirect_sites: Vec<IndirectSite>,
    /// Statically resolved target sets for indirect sites, keyed by site
    /// VA — filled in by [`ModuleCfg::splice_resolved`] (targets may lie
    /// outside the image, e.g. a JIT buffer or another module).
    pub resolved_targets: BTreeMap<u32, Vec<u32>>,
    code: CodeMap,
    instr_starts: Bits,
    reachable_starts: Bits,
    decode: DecodeStats,
}

#[derive(Clone, Copy)]
struct Decoded {
    instr: Instr,
    len: u32,
}

const NOP: Decoded = Decoded { instr: Instr::Nop, len: 1 };

/// A run of executable VAs owned by one section.
#[derive(Debug, Clone, Copy)]
struct Span {
    va: u32,
    end: u32,
    /// Index of the span's first byte in the flat code index.
    base: usize,
    /// Index of the owning section in `FdlImage::sections`.
    section: usize,
}

/// An image's executable bytes as disjoint, VA-sorted spans under one flat
/// index. A VA belongs to the first section in image order that contains
/// it; only VAs whose owner is executable are indexed.
#[derive(Debug, Clone, Default)]
struct CodeMap {
    spans: Vec<Span>,
    len: usize,
}

impl CodeMap {
    fn of(image: &FdlImage) -> CodeMap {
        // Between two consecutive section boundaries every VA has the same
        // owner, so one lookup per piece suffices.
        let mut cuts: Vec<u32> = image.sections.iter().flat_map(|s| [s.va, s.end_va()]).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut map = CodeMap::default();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let Some(section) = image.sections.iter().position(|s| s.contains(lo)) else {
                continue;
            };
            if !image.sections[section].is_code() {
                continue;
            }
            match map.spans.last_mut() {
                Some(last) if last.end == lo && last.section == section => last.end = hi,
                _ => map.spans.push(Span { va: lo, end: hi, base: map.len, section }),
            }
            map.len += (hi - lo) as usize;
        }
        map
    }

    /// The span holding `va` and `va`'s flat index.
    fn locate(&self, va: u32) -> Option<(Span, usize)> {
        let s = *self.spans.get(self.spans.partition_point(|s| s.end <= va))?;
        (s.va <= va).then(|| (s, s.base + (va - s.va) as usize))
    }

    fn index_of(&self, va: u32) -> Option<usize> {
        self.locate(va).map(|(_, i)| i)
    }
}

/// One bit per flat code index.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Bits {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 != 0
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

/// Slot values of [`Table`]; decoded instruction `k` is stored as
/// `DECODED + k`.
const UNSEEN: u32 = 0;
const INVALID: u32 = 1;
const PADDING: u32 = 2;
const DECODED: u32 = 3;

/// What recovery learned about each code byte, by flat index: nothing
/// yet, no instruction starts here, a padding `nop`, or a decoded
/// instruction.
struct Table<'a> {
    image: &'a FdlImage,
    slots: Vec<u32>,
    decoded: Vec<Decoded>,
    stats: DecodeStats,
}

impl<'a> Table<'a> {
    fn new(image: &'a FdlImage, code: &CodeMap) -> Table<'a> {
        Table {
            image,
            slots: vec![UNSEEN; code.len],
            decoded: Vec::new(),
            stats: DecodeStats::default(),
        }
    }

    /// The instruction recorded at flat index `i`, if any.
    fn get(&self, i: usize) -> Option<Decoded> {
        match self.slots[i] {
            UNSEEN | INVALID => None,
            PADDING => Some(NOP),
            k => Some(self.decoded[(k - DECODED) as usize]),
        }
    }

    fn byte(&self, span: Span, va: u32) -> u8 {
        let s = &self.image.sections[span.section];
        s.data[(va - s.va) as usize]
    }

    /// Decodes the unseen, non-zero byte at `va` (flat index `i`) and
    /// records the result.
    fn decode(&mut self, span: Span, i: usize, va: u32) -> Option<Decoded> {
        let s = &self.image.sections[span.section];
        self.stats.insns_decoded += 1;
        let d = decode_at(&s.data, (va - s.va) as usize)
            .ok()
            // An instruction must not run past its section.
            .filter(|&(_, len)| u64::from(va) + len as u64 <= u64::from(s.end_va()))
            .map(|(instr, len)| Decoded { instr, len: len as u32 });
        self.slots[i] = match d {
            Some(d) => {
                self.decoded.push(d);
                DECODED + (self.decoded.len() - 1) as u32
            }
            None => INVALID,
        };
        d
    }

    /// Records the zero run starting at the unseen zero byte `va` (flat
    /// index `i`) as padding `nop`s, up to `limit`, the span end, or the
    /// first non-zero or already recorded byte. Returns the VA after it.
    fn take_zero_run(&mut self, span: Span, i: usize, va: u32, limit: u32) -> u32 {
        let s = &self.image.sections[span.section];
        let from = (va - s.va) as usize;
        let to = (limit.min(span.end) - s.va) as usize;
        let run = s.data[from..to]
            .iter()
            .zip(&self.slots[i..])
            .take_while(|&(&b, &slot)| b == 0 && slot == UNSEEN)
            .count();
        self.slots[i..i + run].fill(PADDING);
        self.stats.padding_bytes += run as u64;
        va + run as u32
    }
}

impl ModuleCfg {
    /// Builds the static model of `image`.
    pub fn recover(name: &str, image: &FdlImage) -> ModuleCfg {
        let code = CodeMap::of(image);
        let mut table = Table::new(image, &code);
        let mut leaders: Vec<u32> = Vec::new();
        let mut call_edges = Vec::new();
        let mut indirect_vas = Vec::new();

        // Pass 1: recursive descent from the entry point and code exports.
        let mut worklist: VecDeque<u32> = VecDeque::new();
        let mut roots: Vec<u32> = Vec::new();
        if image.is_code_va(image.entry) {
            roots.push(image.entry);
        }
        roots.extend(image.exports.iter().map(|e| e.va).filter(|&va| image.is_code_va(va)));
        for root in roots {
            leaders.push(root);
            worklist.push_back(root);
        }
        while let Some(va) = worklist.pop_front() {
            let Some((span, i)) = code.locate(va) else { continue };
            if table.slots[i] != UNSEEN {
                continue;
            }
            if table.byte(span, va) == 0 {
                // A padding nop only falls through. With nothing else
                // pending, descent would walk the whole run next, so take it
                // at once; otherwise take one nop per turn, keeping the FIFO
                // visit order (and so the order of `call_edges`).
                let limit = if worklist.is_empty() { span.end } else { va + 1 };
                worklist.push_back(table.take_zero_run(span, i, va, limit));
                continue;
            }
            let Some(d) = table.decode(span, i, va) else { continue };
            let next = va.wrapping_add(d.len);
            let target = |rel: i32| next.wrapping_add(rel as u32);
            match d.instr {
                Instr::Jmp { rel } => {
                    leaders.push(target(rel));
                    worklist.push_back(target(rel));
                }
                Instr::Jcc { rel, .. } => {
                    leaders.extend([target(rel), next]);
                    worklist.push_back(target(rel));
                    worklist.push_back(next);
                }
                Instr::Call { rel } => {
                    call_edges.push((va, target(rel)));
                    leaders.extend([target(rel), next]);
                    worklist.push_back(target(rel));
                    worklist.push_back(next);
                }
                Instr::CallReg { .. } => {
                    indirect_vas.push(va);
                    leaders.push(next);
                    worklist.push_back(next);
                }
                Instr::JmpReg { .. } => {
                    indirect_vas.push(va);
                }
                Instr::Int { .. } => {
                    // Syscalls return to the next instruction.
                    leaders.push(next);
                    worklist.push_back(next);
                }
                Instr::Ret | Instr::Hlt => {}
                _ => {
                    worklist.push_back(next);
                }
            }
        }
        let mut reachable_starts = Bits::new(code.len);
        for (i, _) in table.slots.iter().enumerate().filter(|&(_, &slot)| slot >= PADDING) {
            reachable_starts.set(i);
        }

        // Pass 2: linear sweep over the bytes descent never reached.
        for s in image.code_sections() {
            let mut va = s.va;
            let mut synced = false;
            while va < s.end_va() {
                let Some((span, i)) = code.locate(va) else {
                    // An earlier, non-executable section owns this byte.
                    va = va.wrapping_add(1);
                    synced = false;
                    continue;
                };
                if table.slots[i] != UNSEEN {
                    // Already visited, or known undecodable.
                    va = va.wrapping_add(table.get(i).map_or(1, |d| d.len));
                    synced = false;
                    continue;
                }
                let next = if table.byte(span, va) == 0 {
                    table.take_zero_run(span, i, va, span.end)
                } else {
                    let Some(d) = table.decode(span, i, va) else {
                        va = va.wrapping_add(1);
                        synced = false;
                        continue;
                    };
                    if matches!(d.instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                        indirect_vas.push(va);
                    }
                    va.wrapping_add(d.len)
                };
                if !synced {
                    // First decodable byte after a gap starts a block.
                    leaders.push(va);
                    synced = true;
                }
                va = next;
            }
        }

        // Group instructions into blocks at the leaders, stepping through
        // both in address order.
        leaders.sort_unstable();
        leaders.dedup();
        let mut leaders = leaders.into_iter().peekable();
        let mut instr_starts = Bits::new(code.len);
        let mut blocks: BTreeMap<u32, BasicBlock> = BTreeMap::new();
        let mut current: Option<BasicBlock> = None;
        let mut expected_next: u32 = 0;
        let instrs = code.spans.iter().flat_map(|s| {
            (s.va..s.end).zip(s.base..).filter_map(|(va, i)| Some((va, i, table.get(i)?)))
        });
        for (va, i, d) in instrs {
            instr_starts.set(i);
            while leaders.next_if(|&l| l < va).is_some() {}
            let is_leader = leaders.peek() == Some(&va);
            let continues = current.is_some() && va == expected_next && !is_leader;
            if !continues {
                if let Some(mut b) = current.take() {
                    // A block cut short by a leader (not by a block-ending
                    // instruction) falls through into that leader.
                    if b.succs.is_empty()
                        && b.end == va
                        && !b.instrs.last().is_some_and(|(_, i)| i.ends_block())
                    {
                        b.succs = vec![va];
                    }
                    blocks.insert(b.start, b);
                }
                current = Some(BasicBlock {
                    start: va,
                    end: va,
                    instrs: Vec::new(),
                    succs: Vec::new(),
                    reachable: reachable_starts.get(i),
                });
            }
            let b = current.as_mut().expect("block opened above");
            b.instrs.push((va, d.instr));
            b.end = va.wrapping_add(d.len);
            expected_next = b.end;
            if d.instr.ends_block() {
                let next = b.end;
                let target = |rel: i32| next.wrapping_add(rel as u32);
                b.succs = match d.instr {
                    Instr::Jmp { rel } => vec![target(rel)],
                    Instr::Jcc { rel, .. } => vec![target(rel), next],
                    Instr::Call { rel } => vec![target(rel), next],
                    Instr::CallReg { .. } | Instr::Int { .. } => vec![next],
                    _ => Vec::new(),
                };
                blocks.insert(b.start, current.take().expect("current set"));
            }
        }
        if let Some(b) = current.take() {
            blocks.insert(b.start, b);
        }

        let indirect_sites = indirect_vas
            .into_iter()
            .map(|va| {
                let i = code.index_of(va).expect("indirect sites were decoded in code");
                IndirectSite {
                    va,
                    instr: table.get(i).expect("indirect sites were decoded").instr,
                    reachable: reachable_starts.get(i),
                }
            })
            .collect();
        ModuleCfg {
            name: name.to_string(),
            blocks,
            call_edges,
            indirect_sites,
            resolved_targets: BTreeMap::new(),
            decode: table.stats,
            code,
            instr_starts,
            reachable_starts,
        }
    }

    /// The decoder work this model's recovery did.
    pub fn decode_stats(&self) -> DecodeStats {
        self.decode
    }

    /// Start VA of the block whose byte range contains `va`.
    fn block_containing(&self, va: u32) -> Option<u32> {
        let (&start, b) = self.blocks.range(..=va).next_back()?;
        (va < b.end).then_some(start)
    }

    /// Position of the instruction starting at `va` in the block at
    /// `bstart` (a block's instructions are in address order).
    fn instr_index(&self, bstart: u32, va: u32) -> Option<usize> {
        self.blocks[&bstart].instrs.binary_search_by_key(&va, |&(v, _)| v).ok()
    }

    /// Splits the block containing `va` so that `va` becomes a block
    /// start (a new leader discovered after recovery — e.g. a resolved
    /// indirect-branch target landing mid-block). Returns `true` if a
    /// split happened.
    fn split_block_at(&mut self, va: u32) -> bool {
        if self.blocks.contains_key(&va) || !self.accounts_for(va) {
            return false;
        }
        let Some(bstart) = self.block_containing(va) else { return false };
        let Some(idx) = self.instr_index(bstart, va) else { return false };
        let b = self.blocks.get_mut(&bstart).expect("block_containing returned a key");
        let tail = BasicBlock {
            start: va,
            end: b.end,
            instrs: b.instrs.split_off(idx),
            succs: std::mem::take(&mut b.succs),
            reachable: b.reachable,
        };
        b.end = va;
        b.succs = vec![va];
        self.blocks.insert(va, tail);
        true
    }

    /// Splices statically resolved indirect-branch target sets back into
    /// the model: records them in [`resolved_targets`](Self::resolved_targets),
    /// turns in-image targets into real successor / call edges (splitting
    /// blocks where a target lands mid-block), and extends
    /// descent-reachability through the new edges, so `is_reachable`,
    /// `unreachable_blocks` and the lint layer all see the resolved flow.
    pub fn splice_resolved(&mut self, resolved: &BTreeMap<u32, Vec<u32>>) {
        let mut new_roots: Vec<u32> = Vec::new();
        for (&site, targets) in resolved {
            self.resolved_targets.insert(site, targets.clone());
            let in_image: Vec<u32> =
                targets.iter().copied().filter(|&t| self.accounts_for(t)).collect();
            for &t in &in_image {
                self.split_block_at(t);
            }
            let Some(bstart) = self.block_containing(site) else { continue };
            let b = self.blocks.get_mut(&bstart).expect("block_containing returned a key");
            match b.instrs.last() {
                Some(&(last_va, Instr::JmpReg { .. })) if last_va == site => {
                    for &t in &in_image {
                        if !b.succs.contains(&t) {
                            b.succs.push(t);
                        }
                    }
                }
                Some(&(last_va, Instr::CallReg { .. })) if last_va == site => {
                    for &t in &in_image {
                        if !self.call_edges.contains(&(site, t)) {
                            self.call_edges.push((site, t));
                        }
                    }
                }
                _ => continue,
            }
            if self.is_reachable(site) {
                new_roots.extend(in_image);
            }
        }
        self.extend_reachability(new_roots);
    }

    /// Propagates descent-reachability from `roots` through block
    /// successors, direct call edges, and already-resolved indirect edges.
    fn extend_reachability(&mut self, roots: Vec<u32>) {
        let mut work: VecDeque<u32> = roots
            .into_iter()
            .filter(|&r| self.blocks.contains_key(&r) && !self.is_reachable(r))
            .collect();
        while let Some(bva) = work.pop_front() {
            if self.is_reachable(bva) {
                continue;
            }
            let Some(b) = self.blocks.get_mut(&bva) else { continue };
            b.reachable = true;
            // Block succs already carry direct-call targets and
            // fall-throughs; only resolved indirect edges need adding.
            let mut next: Vec<u32> = b.succs.clone();
            for &(va, instr) in &b.instrs {
                let i = self.code.index_of(va).expect("block instructions lie in code");
                self.reachable_starts.set(i);
                if matches!(instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                    if let Some(ts) = self.resolved_targets.get(&va) {
                        next.extend(ts.iter().copied());
                    }
                }
            }
            work.extend(next.into_iter().filter(|t| self.blocks.contains_key(t)));
        }
        for site in &mut self.indirect_sites {
            site.reachable =
                self.code.index_of(site.va).is_some_and(|i| self.reachable_starts.get(i));
        }
    }

    /// Returns `true` if `va` is the start of a statically recovered
    /// instruction (descent or sweep) — the coverage cross-check's
    /// definition of "statically charted".
    pub fn accounts_for(&self, va: u32) -> bool {
        self.code.index_of(va).is_some_and(|i| self.instr_starts.get(i))
    }

    /// Returns `true` if recursive descent reached the instruction at `va`.
    pub fn is_reachable(&self, va: u32) -> bool {
        self.code.index_of(va).is_some_and(|i| self.reachable_starts.get(i))
    }

    /// The recovered instruction starting at `va`, if any.
    pub fn instr_at(&self, va: u32) -> Option<Instr> {
        let bstart = self.block_containing(va)?;
        let idx = self.instr_index(bstart, va)?;
        Some(self.blocks[&bstart].instrs[idx].1)
    }

    /// The reachable instructions, as `(va, instr)` pairs in address order.
    pub fn reachable_instrs(&self) -> impl Iterator<Item = (u32, Instr)> + '_ {
        self.blocks
            .values()
            .filter(|b| b.reachable)
            .flat_map(|b| b.instrs.iter().copied())
    }

    /// Blocks the sweep found but descent never reached, excluding pure
    /// padding runs.
    pub fn unreachable_blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.values().filter(|b| !b.reachable && !b.is_padding())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::encode::encode;
    use faros_emu::isa::{Cond, Width};
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, Section};
    use faros_support::arb::guest_instr;
    use faros_support::prop::{Config, Rng};
    use faros_support::{prop_assert, prop_assert_eq};
    use std::collections::BTreeSet;

    const BASE: u32 = 0x40_0000;

    fn image_of(asm: Asm) -> FdlImage {
        let code = asm.assemble().expect("assembles");
        FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        }
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(faros_emu::isa::Reg::Eax, 1);
        asm.mov_ri(faros_emu::isa::Reg::Ebx, 2);
        asm.hlt();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.blocks.len(), 1);
        let b = cfg.blocks.values().next().unwrap();
        assert_eq!(b.start, BASE);
        assert_eq!(b.instrs.len(), 3);
        assert!(b.reachable);
        assert!(b.succs.is_empty());
    }

    #[test]
    fn branch_splits_blocks_and_links_successors() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.cmp_ri(Reg::Eax, 0);
        asm.jnz("odd"); // block 1 ends; succs = [odd, fallthrough]
        asm.mov_ri(Reg::Ebx, 1);
        asm.hlt();
        asm.label("odd");
        asm.mov_ri(Reg::Ebx, 2);
        asm.hlt();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.blocks.len(), 3);
        let first = &cfg.blocks[&BASE];
        assert_eq!(first.succs.len(), 2);
        for succ in &first.succs {
            assert!(cfg.blocks.contains_key(succ), "successor {succ:#x} is a block start");
        }
        assert!(cfg.blocks.values().all(|b| b.reachable));
    }

    #[test]
    fn direct_calls_build_the_call_graph() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.call("fn1");
        asm.hlt();
        asm.label("fn1");
        asm.mov_ri(Reg::Eax, 7);
        asm.ret();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.call_edges.len(), 1);
        let (_site, callee) = cfg.call_edges[0];
        assert!(cfg.blocks.contains_key(&callee));
        assert!(cfg.blocks[&callee].reachable);
    }

    #[test]
    fn indirect_sites_are_collected() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0x8000_0000);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.indirect_sites.len(), 1);
        assert!(cfg.indirect_sites[0].reachable);
        // The instruction after the indirect call is still explored.
        assert!(cfg.accounts_for(cfg.indirect_sites[0].va));
    }

    #[test]
    fn sweep_finds_code_descent_cannot_reach() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.hlt(); // entry block ends immediately
        asm.label("orphan");
        asm.mov_ri(Reg::Eax, 9);
        asm.ret();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        let unreachable: Vec<_> = cfg.unreachable_blocks().collect();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].instrs.len(), 2);
        // Sweep instructions still count as charted.
        assert!(cfg.accounts_for(unreachable[0].start));
        assert!(!cfg.is_reachable(unreachable[0].start));
    }

    #[test]
    fn exports_are_descent_roots() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let fn_va = BASE + 1;
        asm.mov_ri(Reg::Eax, 3); // at BASE+1, only reachable via the export
        asm.ret();
        let code = asm.assemble().unwrap();
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![Export { name: "f".into(), va: fn_va }],
        };
        let cfg = ModuleCfg::recover("t", &image);
        assert!(cfg.is_reachable(fn_va));
    }

    #[test]
    fn padding_blocks_are_not_reported_unreachable() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let mut code = asm.assemble().unwrap();
        code.resize(64, 0); // zero padding decodes as nops
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        assert_eq!(cfg.unreachable_blocks().count(), 0);
        // ...but the padding is still charted.
        assert!(cfg.accounts_for(BASE + 1));
    }

    #[test]
    fn splicing_resolved_targets_extends_reachability() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        asm.label("helper"); // only reachable through the indirect call
        asm.mov_ri(Reg::Eax, 1);
        asm.ret();
        let (code, labels) = asm.assemble_with_labels().unwrap();
        let helper = labels["helper"];
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let mut cfg = ModuleCfg::recover("t", &image);
        let site = cfg.indirect_sites[0].va;
        assert!(!cfg.is_reachable(helper));

        let resolved = BTreeMap::from([(site, vec![helper])]);
        cfg.splice_resolved(&resolved);
        assert!(cfg.is_reachable(helper), "spliced callee becomes reachable");
        assert!(cfg.call_edges.contains(&(site, helper)), "call edge spliced");
        assert_eq!(cfg.resolved_targets[&site], vec![helper]);
        assert_eq!(cfg.unreachable_blocks().count(), 0);
    }

    #[test]
    fn splicing_a_mid_block_target_splits_the_block() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Edi, 0);
        asm.jmp_reg(Reg::Edi);
        asm.label("run"); // swept as one straight-line block
        asm.mov_ri(Reg::Eax, 1);
        asm.label("mid");
        asm.mov_ri(Reg::Ebx, 2);
        asm.hlt();
        let (code, labels) = asm.assemble_with_labels().unwrap();
        let mid = labels["mid"];
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let mut cfg = ModuleCfg::recover("t", &image);
        assert!(!cfg.blocks.contains_key(&mid), "target starts mid-block");
        let site = cfg.indirect_sites[0].va;
        cfg.splice_resolved(&BTreeMap::from([(site, vec![mid])]));
        assert!(cfg.blocks.contains_key(&mid), "block split at resolved target");
        assert!(cfg.is_reachable(mid));
        let site_block = cfg.blocks.range(..=site).next_back().unwrap().1;
        assert!(site_block.succs.contains(&mid), "jmp edge spliced");
    }

    #[test]
    fn data_only_images_have_no_blocks() {
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: vec![1, 2, 3], perms: Perms::RW }],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        assert!(cfg.blocks.is_empty());
        assert!(!cfg.accounts_for(BASE));
    }

    /// Asserts that two models agree on everything `recover` builds and on
    /// every charting query over each code section plus one VA past it.
    fn same_model(a: &ModuleCfg, b: &ModuleCfg, image: &FdlImage) -> Result<(), String> {
        prop_assert_eq!(a.blocks, b.blocks);
        prop_assert_eq!(a.call_edges, b.call_edges);
        prop_assert_eq!(a.indirect_sites, b.indirect_sites);
        prop_assert_eq!(a.resolved_targets, b.resolved_targets);
        for s in image.code_sections() {
            for va in s.va..=s.end_va() {
                prop_assert_eq!(a.accounts_for(va), b.accounts_for(va), "accounts_for({va:#x})");
                prop_assert_eq!(a.is_reachable(va), b.is_reachable(va), "is_reachable({va:#x})");
                prop_assert_eq!(a.instr_at(va), b.instr_at(va), "instr_at({va:#x})");
            }
        }
        Ok(())
    }

    /// Recovers `image` both ways, splices `resolved` into both, and
    /// compares the models before and after.
    fn matches_reference(
        image: &FdlImage,
        resolved: &BTreeMap<u32, Vec<u32>>,
    ) -> Result<(), String> {
        let mut new = ModuleCfg::recover("t", image);
        let mut old = reference_recover("t", image);
        same_model(&new, &old, image)?;
        let stats = new.decode_stats();
        let code: Vec<u8> = image.code_sections().flat_map(|s| s.data.iter().copied()).collect();
        let nonzero = code.iter().filter(|&&b| b != 0).count() as u64;
        prop_assert!(stats.insns_decoded <= nonzero, "{stats:?} vs {nonzero} non-zero bytes");
        prop_assert!(stats.insns_decoded + stats.padding_bytes <= code.len() as u64);
        new.splice_resolved(resolved);
        old.splice_resolved(resolved);
        same_model(&new, &old, image)
    }

    /// A generated image: code sections mixing `guest_instr` runs, zero
    /// runs, zero-operand instructions and branches into all of them, in
    /// shuffled image order with a data section between two of them; plus
    /// splice targets for the indirect sites recovery finds.
    #[derive(Debug, Clone)]
    struct Case {
        image: FdlImage,
        targets: Vec<u32>,
    }

    impl faros_support::prop::Shrink for Case {}

    /// Instructions with zero operand bytes.
    fn zero_operand_instr(rng: &mut Rng) -> Instr {
        use faros_emu::isa::{Mem, Operand, Reg};
        match rng.below(5) {
            0 => Instr::MovRI { dst: Reg::Eax, imm: 0 },
            1 => Instr::Jmp { rel: 0 },
            2 => Instr::Call { rel: 0 },
            3 => Instr::Cmp { a: Reg::Eax, b: Operand::Imm(0) },
            _ => Instr::Load { dst: Reg::Eax, mem: Mem::abs(0), width: Width::B4 },
        }
    }

    /// One code section's bytes at `va`; pushes the VAs worth aiming at
    /// (zero-run interiors, piece starts) onto `marks`.
    fn gen_code(rng: &mut Rng, va: u32, outside: u32, marks: &mut Vec<u32>) -> Vec<u8> {
        use faros_emu::isa::Reg;
        let mut bytes = Vec::new();
        // Branches are patched once every piece is laid out.
        let mut branches: Vec<(usize, Instr)> = Vec::new();
        let mut zero_runs: Vec<(usize, usize)> = Vec::new();
        for _ in 0..rng.range_usize(1, 12) {
            marks.push(va + bytes.len() as u32);
            match rng.below(6) {
                0 | 1 => {
                    for _ in 0..rng.range_usize(1, 8) {
                        bytes.extend(encode(&guest_instr(rng)));
                    }
                }
                2 => {
                    let n = if rng.below(4) == 0 {
                        rng.range_usize(64, 600)
                    } else {
                        rng.range_usize(1, 24)
                    };
                    zero_runs.push((bytes.len(), n));
                    bytes.resize(bytes.len() + n, 0);
                }
                3 => bytes.extend(encode(&zero_operand_instr(rng))),
                4 => {
                    let template = match rng.below(5) {
                        0 => Instr::Jmp { rel: 0 },
                        1 => Instr::Call { rel: 0 },
                        _ => Instr::Jcc { cond: Cond::Z, rel: 0 },
                    };
                    branches.push((bytes.len(), template));
                    bytes.extend(encode(&template));
                }
                _ => {
                    let target = *rng.pick(&[Reg::Eax, Reg::Ebx, Reg::Esi]);
                    let i = if rng.next_bool() {
                        Instr::CallReg { target }
                    } else {
                        Instr::JmpReg { target }
                    };
                    bytes.extend(encode(&i));
                }
            }
        }
        for &(at, n) in &zero_runs {
            marks.push(va + (at + rng.range_usize(0, n)) as u32);
        }
        for (at, template) in branches {
            let len = encode(&template).len();
            let target = match rng.below(4) {
                0 if !zero_runs.is_empty() => {
                    // Into the middle of a zero run.
                    let &(z, n) = rng.pick(&zero_runs);
                    va + (z + rng.range_usize(0, n)) as u32
                }
                1 => rng.range_u32(va.saturating_sub(64), outside),
                _ => va + rng.range_usize(0, bytes.len()) as u32,
            };
            let rel = target.wrapping_sub(va + (at + len) as u32) as i32;
            let patched = match template {
                Instr::Jmp { .. } => Instr::Jmp { rel },
                Instr::Call { .. } => Instr::Call { rel },
                _ => Instr::Jcc { cond: Cond::Z, rel },
            };
            bytes[at..at + len].copy_from_slice(&encode(&patched));
        }
        if rng.below(3) == 0 {
            // An instruction cut off at the section end.
            let tail = encode(&Instr::MovRI { dst: Reg::Ecx, imm: rng.next_u32() | 1 });
            bytes.extend(&tail[..rng.range_usize(1, tail.len())]);
        }
        bytes
    }

    fn gen_case(rng: &mut Rng) -> Case {
        let n_code = rng.range_usize(1, 5);
        let outside = BASE + 0x4000;
        let mut sections = Vec::new();
        let mut marks = Vec::new();
        let mut va = BASE;
        for k in 0..n_code {
            let data = gen_code(rng, va, outside, &mut marks);
            va += data.len() as u32;
            sections.push(Section { va: va - data.len() as u32, data, perms: Perms::RX });
            if rng.next_bool() {
                va += rng.range_u32(1, 64);
            }
            if k == 0 && n_code > 1 {
                let data: Vec<u8> =
                    (0..rng.range_usize(1, 48)).map(|_| rng.next_u8() & 3).collect();
                va += data.len() as u32;
                sections.push(Section { va: va - data.len() as u32, data, perms: Perms::RW });
            }
        }
        // Image order need not be VA order.
        for i in (1..sections.len()).rev() {
            sections.swap(i, rng.range_usize(0, i + 1));
        }
        let pick_va = |rng: &mut Rng| match rng.below(8) {
            0 => rng.range_u32(BASE - 16, outside),
            _ => *rng.pick(&marks),
        };
        let entry = pick_va(rng);
        let exports = (0..rng.range_usize(0, 4))
            .map(|k| Export { name: format!("e{k}"), va: pick_va(rng) })
            .collect();
        let targets = (0..rng.range_usize(0, 12)).map(|_| pick_va(rng)).collect();
        Case { image: FdlImage { entry, export_table_va: 0, sections, exports }, targets }
    }

    #[test]
    fn table_driven_recovery_matches_the_reference() {
        faros_support::prop::check("cfg_matches_reference", Config::default(), gen_case, |case| {
            // Each indirect site gets the next up-to-three targets.
            let sites = ModuleCfg::recover("t", &case.image).indirect_sites;
            let resolved: BTreeMap<u32, Vec<u32>> = sites
                .iter()
                .zip(case.targets.chunks(3))
                .map(|(s, ts)| (s.va, ts.to_vec()))
                .collect();
            matches_reference(&case.image, &resolved)
        });
    }

    #[test]
    fn dense_images_match_the_reference() {
        for seed in 0..4 {
            let mut rng = Rng::new(seed);
            let mut code = Vec::new();
            while code.len() < 0x4000 {
                code.extend(encode(&guest_instr(&mut rng)));
            }
            let image = FdlImage {
                entry: BASE,
                export_table_va: 0,
                sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
                exports: vec![],
            };
            matches_reference(&image, &BTreeMap::new()).unwrap();
        }
    }

    #[test]
    fn splicing_a_target_inside_padding_matches_the_reference() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Esi, 0);
        asm.call_reg(Reg::Esi);
        asm.hlt();
        let mut code = asm.assemble().unwrap();
        let site = BASE + encode(&Instr::MovRI { dst: Reg::Esi, imm: 0 }).len() as u32;
        let pad_start = BASE + code.len() as u32;
        code.resize(code.len() + 256, 0);
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let target = pad_start + 100;
        let resolved = BTreeMap::from([(site, vec![target])]);
        matches_reference(&image, &resolved).unwrap();
        let mut cfg = ModuleCfg::recover("t", &image);
        assert!(!cfg.is_reachable(target));
        cfg.splice_resolved(&resolved);
        assert!(cfg.blocks.contains_key(&target), "padding block split at the target");
        assert!(cfg.is_reachable(target) && cfg.is_reachable(pad_start + 255));
        assert!(!cfg.is_reachable(pad_start + 99));
        assert!(cfg.call_edges.contains(&(site, target)));
    }

    #[test]
    fn overlapping_sections_follow_the_first_owner() {
        let mut rng = Rng::new(7);
        let mut code = Vec::new();
        while code.len() < 0x200 {
            code.extend(encode(&guest_instr(&mut rng)));
        }
        code.resize(0x300, 0);
        let sections = vec![
            // A data section shadows part of the code below it...
            Section { va: BASE + 0x80, data: vec![0; 0x40], perms: Perms::RW },
            Section { va: BASE, data: code.clone(), perms: Perms::RX },
            // ...and an earlier code section owns the bytes this one repeats.
            Section { va: BASE + 0x100, data: code, perms: Perms::RX },
        ];
        let image = FdlImage { entry: BASE + 0x110, export_table_va: 0, sections, exports: vec![] };
        matches_reference(&image, &BTreeMap::new()).unwrap();
    }

    #[test]
    fn padding_is_taken_without_the_decoder() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let mut code = asm.assemble().unwrap();
        code.resize(0x1000, 0);
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let stats = ModuleCfg::recover("t", &image).decode_stats();
        assert_eq!(stats, DecodeStats { insns_decoded: 1, padding_bytes: 0xfff });
    }

    fn bits_of(code: &CodeMap, vas: &BTreeSet<u32>) -> Bits {
        let mut bits = Bits::new(code.len);
        for &va in vas {
            bits.set(code.index_of(va).expect("recovered starts lie in code"));
        }
        bits
    }

    /// The recovery as it stood before the per-section tables: a
    /// test-only oracle the table-driven [`ModuleCfg::recover`] must
    /// match. Only the final conversion of its private sets differs.
    fn reference_recover(name: &str, image: &FdlImage) -> ModuleCfg {
        let mut visited: BTreeMap<u32, Decoded> = BTreeMap::new();
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        let mut call_edges = Vec::new();
        let mut indirect_vas = Vec::new();

        let decode_va = |va: u32| -> Option<Decoded> {
            let s = image.section_containing(va).filter(|s| s.is_code())?;
            let (instr, len) = decode_at(&s.data, (va - s.va) as usize).ok()?;
            // An instruction must not run past its section.
            (u64::from(va) + len as u64 <= u64::from(s.end_va()))
                .then_some(Decoded { instr, len: len as u32 })
        };

        // Pass 1: recursive descent from the entry point and code exports.
        let mut worklist: VecDeque<u32> = VecDeque::new();
        let mut roots: Vec<u32> = Vec::new();
        if image.is_code_va(image.entry) {
            roots.push(image.entry);
        }
        roots.extend(image.exports.iter().map(|e| e.va).filter(|&va| image.is_code_va(va)));
        for root in roots {
            leaders.insert(root);
            worklist.push_back(root);
        }
        while let Some(va) = worklist.pop_front() {
            if visited.contains_key(&va) {
                continue;
            }
            let Some(d) = decode_va(va) else { continue };
            visited.insert(va, d);
            let next = va.wrapping_add(d.len);
            let target = |rel: i32| next.wrapping_add(rel as u32);
            match d.instr {
                Instr::Jmp { rel } => {
                    leaders.insert(target(rel));
                    worklist.push_back(target(rel));
                }
                Instr::Jcc { rel, .. } => {
                    leaders.insert(target(rel));
                    leaders.insert(next);
                    worklist.push_back(target(rel));
                    worklist.push_back(next);
                }
                Instr::Call { rel } => {
                    call_edges.push((va, target(rel)));
                    leaders.insert(target(rel));
                    leaders.insert(next);
                    worklist.push_back(target(rel));
                    worklist.push_back(next);
                }
                Instr::CallReg { .. } => {
                    indirect_vas.push(va);
                    leaders.insert(next);
                    worklist.push_back(next);
                }
                Instr::JmpReg { .. } => {
                    indirect_vas.push(va);
                }
                Instr::Int { .. } => {
                    // Syscalls return to the next instruction.
                    leaders.insert(next);
                    worklist.push_back(next);
                }
                Instr::Ret | Instr::Hlt => {}
                _ => {
                    worklist.push_back(next);
                }
            }
        }
        let reachable_starts: BTreeSet<u32> = visited.keys().copied().collect();

        // Pass 2: linear sweep over the bytes descent never reached.
        for s in image.code_sections() {
            let mut va = s.va;
            let mut synced = false;
            while va < s.end_va() {
                if let Some(d) = visited.get(&va) {
                    va = va.wrapping_add(d.len);
                    synced = false;
                    continue;
                }
                match decode_va(va) {
                    Some(d) => {
                        if !synced {
                            // First decodable byte after a gap starts a block.
                            leaders.insert(va);
                            synced = true;
                        }
                        visited.insert(va, d);
                        if matches!(d.instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                            indirect_vas.push(va);
                        }
                        va = va.wrapping_add(d.len);
                    }
                    None => {
                        va = va.wrapping_add(1);
                        synced = false;
                    }
                }
            }
        }

        // Group instructions into blocks at the leaders.
        let mut blocks: BTreeMap<u32, BasicBlock> = BTreeMap::new();
        let mut current: Option<BasicBlock> = None;
        let mut expected_next: u32 = 0;
        for (&va, d) in &visited {
            let is_leader = leaders.contains(&va);
            let continues = current.is_some() && va == expected_next && !is_leader;
            if !continues {
                if let Some(mut b) = current.take() {
                    // A block cut short by a leader (not by a block-ending
                    // instruction) falls through into that leader.
                    if b.succs.is_empty()
                        && b.end == va
                        && !b.instrs.last().is_some_and(|(_, i)| i.ends_block())
                    {
                        b.succs = vec![va];
                    }
                    blocks.insert(b.start, b);
                }
                current = Some(BasicBlock {
                    start: va,
                    end: va,
                    instrs: Vec::new(),
                    succs: Vec::new(),
                    reachable: reachable_starts.contains(&va),
                });
            }
            let b = current.as_mut().expect("block opened above");
            b.instrs.push((va, d.instr));
            b.end = va.wrapping_add(d.len);
            expected_next = b.end;
            if d.instr.ends_block() {
                let next = b.end;
                let target = |rel: i32| next.wrapping_add(rel as u32);
                b.succs = match d.instr {
                    Instr::Jmp { rel } => vec![target(rel)],
                    Instr::Jcc { rel, .. } => vec![target(rel), next],
                    Instr::Call { rel } => vec![target(rel), next],
                    Instr::CallReg { .. } | Instr::Int { .. } => vec![next],
                    _ => Vec::new(),
                };
                blocks.insert(b.start, current.take().expect("current set"));
            }
        }
        if let Some(b) = current.take() {
            blocks.insert(b.start, b);
        }

        let instr_starts: BTreeSet<u32> = visited.keys().copied().collect();
        let indirect_sites = indirect_vas
            .into_iter()
            .map(|va| IndirectSite {
                va,
                instr: visited[&va].instr,
                reachable: reachable_starts.contains(&va),
            })
            .collect();
        let code = CodeMap::of(image);
        ModuleCfg {
            name: name.to_string(),
            blocks,
            call_edges,
            indirect_sites,
            resolved_targets: BTreeMap::new(),
            instr_starts: bits_of(&code, &instr_starts),
            reachable_starts: bits_of(&code, &reachable_starts),
            code,
            decode: DecodeStats::default(),
        }
    }
}
