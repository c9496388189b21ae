//! The checkpoint formats of an [`Engine`].
//!
//! `rtec-state v2` is one flat, length-prefixed binary encoding, written as
//! a *full* snapshot or as a *delta* against the engine's previous
//! checkpoint:
//!
//! ```text
//! magic    "rtec-state v2\n"
//! part     u8: 0 full, 1 delta
//! from     delta only: the checkpoint it continues (ingested, last query)
//! clock    first query, last query, ingested
//! body     u64 length (little-endian), then
//!   facts    count; in ingestion order, per fact a head (symbol << 2 |
//!            fluent << 1 | seen), its sequence number and arrival as
//!            differences from the previous fact's, time − arrival, and its
//!            row's terms (the rule set declares how many)
//!   flips    delta only: count; sequence numbers (as differences) of older
//!            facts a query has admitted since
//!   pf       count; per simple-fluent grounding: fluent, value, argument
//!            count and arguments, interval count and intervals
//! symbols  count; each symbol's UTF-8 text, length first. A symbol is
//!          written as its index in this table.
//! ```
//!
//! Integers are LEB128 varints, signed ones zigzag-mapped; an optional time
//! is a presence byte and the time. A term is a tagged varint: an integer's
//! zigzag value, a symbol index or a boolean with the tag in its low two
//! bits, or a float's tag followed by its raw `f64` bits XOR the previous
//! float of the same column (the same argument of the same symbol) in the
//! part, little-endian, leading zero bytes dropped. An interval is its
//! start and its length (`TIME_MAX` − start when ongoing).
//!
//! A full snapshot lists every stored input fact. A delta lists the facts
//! ingested since the previous checkpoint that the stores still hold, then
//! the older facts whose seen flag flipped, the clock and the whole `pf`
//! section. Which
//! facts left the stores follows from the clock: a query at `q` drops every
//! older fact that occurred at or before its window start, so applying a
//! delta whose last query moved drops those first.
//!
//! Restore decodes a base and its deltas into a [`Loaded`] state, checked
//! against the rule set, and only then replaces the engine's.

use super::Engine;
use crate::compile::{FactRef, SlotId};
use crate::error::RtecError;
use crate::interval::{Interval, IntervalList};
use crate::pattern::ArgPat;
use crate::rule::SfKind;
use crate::slotstate::{CycleState, StratumState};
use crate::term::{Symbol, Term};
use crate::time::{Time, TIME_MAX, TIME_MIN};

const MAGIC: &[u8] = b"rtec-state v2\n";
const FULL: u8 = 0;
const DELTA: u8 = 1;
/// A term's head is one varint whose low two bits are its tag: an integer
/// (the rest is its zigzag value), a symbol (its index), a boolean, or a
/// wide term — the rest 1: an integer too wide for the head, whose zigzag
/// varint follows; the rest 2 + n: a float, whose bits XOR its column's
/// previous float follow with their n leading zero bytes dropped.
const TAG_INT: u64 = 0;
const TAG_SYM: u64 = 1;
const TAG_BOOL: u64 = 2;
const TAG_WIDE: u64 = 3;

/// Where the engine's last checkpoint left it: what the next delta is
/// written against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Cursor {
    /// Facts numbered from here on were ingested after that checkpoint.
    ingested: u64,
    last_query: Option<Time>,
}

fn corrupt(detail: impl Into<String>) -> RtecError {
    RtecError::CorruptState { detail: detail.into() }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(out: &mut Vec<u8>, v: i64) {
    varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn opt_time(out: &mut Vec<u8>, t: Option<Time>) {
    match t {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            zigzag(out, t);
        }
    }
}

/// The symbols of one part in order of first use.
#[derive(Default)]
struct Symbols {
    /// By interner index: 1 + the symbol's index in `list`, 0 if unused.
    ids: Vec<u32>,
    list: Vec<Symbol>,
}

impl Symbols {
    fn id(&mut self, s: Symbol) -> u64 {
        let i = s.index();
        if i >= self.ids.len() {
            self.ids.resize(i + 1, 0);
        }
        if self.ids[i] == 0 {
            self.list.push(s);
            self.ids[i] = self.list.len() as u32;
        }
        u64::from(self.ids[i] - 1)
    }
}

/// Per column — a row symbol's argument position — the last float of that
/// column in the part: a float is written as its XOR with that one, whose
/// leading zero bytes are dropped (a `gps` longitude shares two bytes with
/// the previous one in two cases of three).
#[derive(Default)]
struct Floats(Vec<u64>);

impl Floats {
    fn swap(&mut self, col: usize, bits: u64) -> u64 {
        match self.0.get_mut(col) {
            Some(last) => std::mem::replace(last, bits),
            None => {
                self.0.resize(col + 1, 0);
                self.0[col] = bits;
                0
            }
        }
    }
}

/// The float column of argument `pos` of rows of symbol `id`; positions
/// from the seventh on share one.
fn column(id: u64, pos: usize) -> usize {
    id as usize * 8 + pos.min(7)
}

/// One part being written. The body goes straight into `out`, behind its
/// length; the symbol table follows it.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    body_at: usize,
    syms: Symbols,
    floats: Floats,
    /// The previous fact's sequence number and arrival.
    seq: u64,
    arrival: Time,
}

impl<'a> Writer<'a> {
    fn begin(out: &'a mut Vec<u8>, engine: &Engine, from: Option<Cursor>) -> Writer<'a> {
        out.extend_from_slice(MAGIC);
        match from {
            None => out.push(FULL),
            Some(c) => {
                out.push(DELTA);
                varint(out, c.ingested);
                opt_time(out, c.last_query);
            }
        }
        opt_time(out, engine.first_query);
        opt_time(out, engine.last_query);
        varint(out, engine.ingested);
        out.extend_from_slice(&[0; 8]);
        let body_at = out.len();
        Writer {
            out,
            body_at,
            syms: Symbols::default(),
            floats: Floats::default(),
            seq: 0,
            arrival: 0,
        }
    }

    fn count(&mut self, n: usize) {
        varint(self.out, n as u64);
    }

    fn seq(&mut self, seq: u64) {
        zigzag(self.out, seq.wrapping_sub(self.seq) as i64);
        self.seq = seq;
    }

    fn fact(&mut self, name: Symbol, fluent: bool, f: &FactRef<'_>) {
        let id = self.syms.id(name);
        varint(self.out, id << 2 | u64::from(fluent) << 1 | u64::from(f.seen));
        self.seq(f.seq);
        zigzag(self.out, f.arrival.wrapping_sub(self.arrival));
        zigzag(self.out, f.time.wrapping_sub(f.arrival));
        self.arrival = f.arrival;
        for (col, t) in f.terms.iter().enumerate() {
            self.term(t, column(id, col));
        }
    }

    /// Writes one term; `col` keys the float it is written against.
    fn term(&mut self, t: &Term, col: usize) {
        match *t {
            Term::Int(v) => {
                let z = ((v << 1) ^ (v >> 63)) as u64;
                if z < 1 << 62 {
                    varint(self.out, z << 2 | TAG_INT);
                } else {
                    varint(self.out, 1 << 2 | TAG_WIDE);
                    varint(self.out, z);
                }
            }
            Term::Sym(s) => {
                let id = self.syms.id(s);
                varint(self.out, id << 2 | TAG_SYM);
            }
            Term::Bool(b) => varint(self.out, u64::from(b) << 2 | TAG_BOOL),
            Term::Float(v) => {
                let bits = v.0.to_bits();
                let x = bits ^ self.floats.swap(col, bits);
                let zeros = (x.leading_zeros() / 8) as usize;
                varint(self.out, (2 + zeros as u64) << 2 | TAG_WIDE);
                // A fixed eight-byte copy and a cut beats a variable copy.
                self.out.extend_from_slice(&x.to_le_bytes());
                self.out.truncate(self.out.len() - zeros);
            }
        }
    }

    /// The facts in ingestion order.
    fn facts(&mut self, facts: &[(Symbol, bool, FactRef<'_>)]) {
        let order = seq_order(facts.iter().map(|(_, _, f)| f.seq));
        self.count(facts.len());
        self.out.reserve(32 * facts.len());
        for i in order {
            let (sym, fluent, f) = &facts[i as usize];
            self.fact(*sym, *fluent, f);
        }
    }

    fn finish(self) {
        let Writer { out, body_at, syms, .. } = self;
        let len = (out.len() - body_at) as u64;
        out[body_at - 8..body_at].copy_from_slice(&len.to_le_bytes());
        varint(out, syms.list.len() as u64);
        for s in syms.list {
            let text = s.as_str();
            varint(out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
    }
}

/// The positions of `seqs` in ascending order of their values, which are
/// distinct: an LSD radix sort on the offsets from the smallest, 11 bits a
/// pass (a window's ingestion numbers span a few thousand, so two passes).
fn seq_order(seqs: impl ExactSizeIterator<Item = u64> + Clone) -> Vec<u32> {
    const BITS: u32 = 11;
    let lo = seqs.clone().min().unwrap_or(0);
    let span = seqs.clone().max().map_or(0, |hi| hi - lo);
    let mut keyed: Vec<(u64, u32)> = seqs.enumerate().map(|(i, s)| (s - lo, i as u32)).collect();
    let mut next = vec![(0, 0); keyed.len()];
    let mut shift = 0;
    while shift == 0 || (shift < 64 && span >> shift > 0) {
        let mut starts = [0usize; 1 << BITS];
        for &(k, _) in &keyed {
            starts[(k >> shift) as usize & ((1 << BITS) - 1)] += 1;
        }
        let mut at = 0;
        for n in &mut starts {
            (*n, at) = (at, at + *n);
        }
        for &(k, i) in &keyed {
            let digit = (k >> shift) as usize & ((1 << BITS) - 1);
            next[starts[digit]] = (k, i);
            starts[digit] += 1;
        }
        std::mem::swap(&mut keyed, &mut next);
        shift += BITS;
    }
    keyed.into_iter().map(|(_, i)| i).collect()
}

impl Engine {
    /// The declared input kinds in slot order: slot, symbol, whether it is
    /// a fluent.
    fn input_kinds(&self) -> Vec<(SlotId, Symbol, bool)> {
        let rules = &self.plan.rules;
        let slot = |sym: Symbol| self.plan.slots.slot(sym).expect("declared input has a slot");
        let mut kinds: Vec<(SlotId, Symbol, bool)> = (rules.input_events.keys())
            .map(|&s| (slot(s), s, false))
            .chain(rules.input_fluents.keys().map(|&s| (slot(s), s, true)))
            .collect();
        kinds.sort_unstable_by_key(|&(slot, _, fluent)| (fluent, slot));
        kinds
    }

    /// Appends a full `rtec-state v2` snapshot to `out`.
    pub(super) fn write_full(&self, out: &mut Vec<u8>) {
        let mut facts = Vec::with_capacity(self.buffered());
        for (slot, sym, fluent) in self.input_kinds() {
            if fluent {
                facts.extend(self.state.obs.facts(slot).map(|f| (sym, true, f)));
            } else {
                facts.extend(self.state.events.facts(slot).map(|f| (sym, false, f)));
            }
        }
        let mut w = Writer::begin(out, self, None);
        w.facts(&facts);
        self.write_pf(&mut w);
        w.finish();
    }

    /// Appends a delta against `cursor` to `out`.
    pub(super) fn write_delta(&self, cursor: Cursor, out: &mut Vec<u8>) {
        let start = self.last_query.map_or(TIME_MIN, |q| self.window.window_start(q));
        let mut new: Vec<(Symbol, bool, FactRef<'_>)> = Vec::new();
        let mut flips: Vec<u64> = Vec::new();
        for (slot, sym, fluent) in self.input_kinds() {
            let changed: Box<dyn Iterator<Item = FactRef<'_>>> = match fluent {
                true => Box::new(self.state.obs.since(slot, cursor.ingested, start)),
                false => Box::new(self.state.events.since(slot, cursor.ingested, start)),
            };
            for f in changed {
                if f.seq < cursor.ingested {
                    flips.push(f.seq);
                } else {
                    new.push((sym, fluent, f));
                }
            }
        }
        flips.sort_unstable();
        let mut w = Writer::begin(out, self, Some(cursor));
        w.facts(&new);
        w.count(flips.len());
        w.seq = 0;
        for seq in flips {
            w.seq(seq);
        }
        self.write_pf(&mut w);
        w.finish();
    }

    /// The current simple-fluent outputs, stratum by stratum, each table in
    /// its `(args, value)` order: the same bytes for the same state, whatever
    /// order the groundings entered their tables in.
    fn write_pf(&self, w: &mut Writer<'_>) {
        let gen = self.state.gen;
        let current = |t: &crate::slotstate::SfTable, gid: u32| {
            let g = &t.gs[gid as usize];
            g.data_gen == gen && !g.out.is_empty()
        };
        let tables = || {
            self.plan.instrs.iter().zip(&self.state.strata).filter_map(|(instr, s)| match s {
                StratumState::Sf(t) => Some((instr.symbol, t)),
                _ => None,
            })
        };
        let n: usize =
            tables().map(|(_, t)| t.order.iter().filter(|&&gid| current(t, gid)).count()).sum();
        w.count(n);
        for (symbol, t) in tables() {
            for &gid in t.order.iter().filter(|&&gid| current(t, gid)) {
                let g = &t.gs[gid as usize];
                let id = w.syms.id(symbol);
                varint(w.out, id);
                w.term(&g.value, column(id, 0));
                let args = t.key_args(g);
                w.count(args.len());
                for (pos, a) in args.iter().enumerate() {
                    w.term(a, column(id, pos + 1));
                }
                w.count(g.out.len());
                for iv in g.out.iter() {
                    zigzag(w.out, iv.start());
                    varint(w.out, iv.end().unwrap_or(TIME_MAX).wrapping_sub(iv.start()) as u64);
                }
            }
        }
    }

    /// Restarts the checkpoint cursor here: the next delta holds what
    /// changes from now on.
    pub(super) fn arm(&mut self) {
        self.cursor = Some(Cursor { ingested: self.ingested, last_query: self.last_query });
        self.state.events.track();
        self.state.obs.track();
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RtecError> {
        if n > self.remaining() {
            return Err(corrupt(format!("truncated at byte {}", self.at)));
        }
        self.at += n;
        Ok(&self.bytes[self.at - n..self.at])
    }

    fn u8(&mut self) -> Result<u8, RtecError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, RtecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt(format!("varint overflows at byte {}", self.at)))
    }

    fn zigzag(&mut self) -> Result<i64, RtecError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// A count of items that take at least one byte each.
    fn count(&mut self, what: &str) -> Result<usize, RtecError> {
        let n = self.varint()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| corrupt(format!("{what} count {n} exceeds the bytes left")))
    }

    fn opt_time(&mut self) -> Result<Option<Time>, RtecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.zigzag()?)),
            b => Err(corrupt(format!("bad optional-time tag {b}"))),
        }
    }

    fn end(&self, what: &str) -> Result<(), RtecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes after the {what}"))),
        }
    }
}

/// One decoded part: its header and symbol table, the body still to read.
struct Part<'a> {
    from: Option<Cursor>,
    first_query: Option<Time>,
    last_query: Option<Time>,
    ingested: u64,
    body: Reader<'a>,
    syms: Vec<Symbol>,
}

fn parse_part(bytes: &[u8]) -> Result<Part<'_>, RtecError> {
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let from = match r.u8()? {
        FULL => None,
        DELTA => Some(Cursor { ingested: r.varint()?, last_query: r.opt_time()? }),
        b => return Err(corrupt(format!("bad part tag {b}"))),
    };
    let (first_query, last_query, ingested) = (r.opt_time()?, r.opt_time()?, r.varint()?);
    let len = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
    let len = usize::try_from(len)
        .ok()
        .filter(|&n| n <= r.remaining())
        .ok_or_else(|| corrupt(format!("body length {len} exceeds the bytes left")))?;
    let body = Reader::new(r.take(len)?);
    let n = r.count("symbol")?;
    let mut syms = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count("symbol byte")?;
        let text = std::str::from_utf8(r.take(len)?)
            .map_err(|_| corrupt(format!("symbol {} is not UTF-8", syms.len())))?;
        syms.push(Symbol::new(text));
    }
    r.end("symbol table")?;
    Ok(Part { from, first_query, last_query, ingested, body, syms })
}

/// A fact of a [`Loaded`] state; its row is `terms[at..at + len]`.
struct LoadedFact {
    seq: u64,
    seen: bool,
    fluent: bool,
    slot: SlotId,
    arrival: Time,
    time: Time,
    at: usize,
    len: usize,
}

/// A simple-fluent grounding's intervals, to seed its table with.
struct Seed {
    si: usize,
    args: Vec<Term>,
    value: Term,
    ivs: IntervalList,
}

/// A snapshot, or a base with its deltas applied, decoded and checked
/// against the engine's rule set: what restore builds before it replaces
/// the engine's state. Facts are in ingestion order.
struct Loaded {
    first_query: Option<Time>,
    last_query: Option<Time>,
    ingested: u64,
    facts: Vec<LoadedFact>,
    terms: Vec<Term>,
    pf: Vec<Seed>,
}

impl Engine {
    /// Decodes a full snapshot.
    fn load(&self, snapshot: &[u8]) -> Result<Loaded, RtecError> {
        if !snapshot.starts_with(MAGIC) {
            return Err(corrupt("unsupported header: not rtec-state v2"));
        }
        let part = parse_part(snapshot)?;
        if part.from.is_some() {
            return Err(corrupt("a delta is not a snapshot to restore from"));
        }
        self.load_full(part)
    }

    fn check_clock(&self, last_query: Option<Time>) -> Result<(), RtecError> {
        match last_query.map(|q| self.window.checked_window_start(q)) {
            Some(None) => Err(corrupt(format!("last query {last_query:?} has no window start"))),
            _ => Ok(()),
        }
    }

    fn load_full(&self, mut part: Part<'_>) -> Result<Loaded, RtecError> {
        self.check_clock(part.last_query)?;
        let mut l = Loaded {
            first_query: part.first_query,
            last_query: part.last_query,
            ingested: part.ingested,
            facts: Vec::new(),
            terms: Vec::new(),
            pf: Vec::new(),
        };
        let kinds = self.kinds_of(&part.syms);
        let (mut seq, mut arrival, mut floats) = (0, 0, Floats::default());
        for _ in 0..part.body.count("fact")? {
            let state = (&mut seq, &mut arrival, &mut floats);
            let f = self.read_fact(&mut part, &kinds, &mut l.terms, state)?;
            l.facts.push(f);
        }
        l.facts.sort_unstable_by_key(|f| f.seq);
        for pair in l.facts.windows(2) {
            if pair[0].seq == pair[1].seq {
                return Err(corrupt(format!("two facts numbered {}", pair[0].seq)));
            }
        }
        if let Some(last) = l.facts.last().filter(|f| f.seq >= l.ingested) {
            return Err(corrupt(format!("fact {} of {} ingested", last.seq, l.ingested)));
        }
        l.pf = self.read_pf(&mut part, &mut floats)?;
        part.body.end("pf section")?;
        Ok(l)
    }

    /// Applies one delta to `l`, which must be the state it was written
    /// against.
    fn apply_delta(&self, l: &mut Loaded, bytes: &[u8]) -> Result<(), RtecError> {
        if !bytes.starts_with(MAGIC) {
            return Err(corrupt("a delta must be rtec-state v2"));
        }
        let mut part = parse_part(bytes)?;
        let from = part.from.ok_or_else(|| corrupt("a full snapshot is not a delta"))?;
        if from != (Cursor { ingested: l.ingested, last_query: l.last_query }) {
            return Err(corrupt(format!(
                "the delta continues {from:?}, the chain is at ingested {} and last query {:?}",
                l.ingested, l.last_query
            )));
        }
        self.check_clock(part.last_query)?;
        let rewinds = match (l.last_query, part.last_query) {
            (Some(a), Some(b)) => b < a,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if part.ingested < l.ingested || rewinds {
            return Err(corrupt("the delta's clock runs backwards"));
        }
        if let Some(q) = part.last_query.filter(|&q| Some(q) != l.last_query) {
            let start = self.window.window_start(q);
            l.facts.retain(|f| f.time > start);
        }
        let kinds = self.kinds_of(&part.syms);
        let old = l.facts.len();
        let (mut seq, mut arrival, mut floats) = (0, 0, Floats::default());
        for _ in 0..part.body.count("fact")? {
            let state = (&mut seq, &mut arrival, &mut floats);
            let f = self.read_fact(&mut part, &kinds, &mut l.terms, state)?;
            let after = l.facts.last().is_none_or(|last| f.seq > last.seq);
            if !after || f.seq < from.ingested || f.seq >= part.ingested {
                return Err(corrupt(format!("new fact {} out of order", f.seq)));
            }
            l.facts.push(f);
        }
        seq = 0;
        for _ in 0..part.body.count("flip")? {
            seq = seq.wrapping_add(part.body.zigzag()? as u64);
            match l.facts[..old].binary_search_by_key(&seq, |f| f.seq) {
                Ok(i) if !l.facts[i].seen => l.facts[i].seen = true,
                _ => return Err(corrupt(format!("no pending fact {seq} to flip"))),
            }
        }
        l.pf = self.read_pf(&mut part, &mut floats)?;
        part.body.end("pf section")?;
        (l.first_query, l.last_query, l.ingested) =
            (part.first_query, part.last_query, part.ingested);
        Ok(())
    }

    /// Per symbol of a part's table: its input event slot and its input
    /// fluent slot, if the rule set declares it so, each with its row
    /// width.
    fn kinds_of(&self, syms: &[Symbol]) -> Vec<[Option<(SlotId, usize)>; 2]> {
        let rules = &self.plan.rules;
        let slot = |sym: Symbol, width: usize| {
            (self.plan.slots.slot(sym).expect("declared input has a slot"), width)
        };
        syms.iter()
            .map(|&s| {
                [
                    rules.input_events.get(&s).map(|&a| slot(s, a)),
                    rules.input_fluents.get(&s).map(|&a| slot(s, a + 1)),
                ]
            })
            .collect()
    }

    fn read_fact(
        &self,
        part: &mut Part<'_>,
        kinds: &[[Option<(SlotId, usize)>; 2]],
        terms: &mut Vec<Term>,
        (seq, arrival, floats): (&mut u64, &mut Time, &mut Floats),
    ) -> Result<LoadedFact, RtecError> {
        let head = part.body.varint()?;
        let (seen, fluent) = (head & 1 == 1, head & 2 == 2);
        let id = usize::try_from(head >> 2).unwrap_or(usize::MAX);
        let kind = kinds.get(id).ok_or_else(|| corrupt(format!("no symbol {id}")))?;
        let (slot, len) = kind[usize::from(fluent)].ok_or_else(|| {
            let what = if fluent { "input fluent" } else { "event" };
            corrupt(format!("{what} `{}` is not declared by this rule set", part.syms[id]))
        })?;
        *seq = seq.wrapping_add(part.body.zigzag()? as u64);
        *arrival = arrival.wrapping_add(part.body.zigzag()?);
        let time = arrival.wrapping_add(part.body.zigzag()?);
        let at = terms.len();
        for pos in 0..len {
            terms.push(read_term(&mut part.body, &part.syms, floats, column(id as u64, pos))?);
        }
        Ok(LoadedFact { seq: *seq, seen, fluent, slot, arrival: *arrival, time, at, len })
    }

    fn read_pf(&self, part: &mut Part<'_>, floats: &mut Floats) -> Result<Vec<Seed>, RtecError> {
        let n = part.body.count("pf")?;
        let mut pf = Vec::with_capacity(n);
        for _ in 0..n {
            let r = &mut part.body;
            let id = r.varint()?;
            let name = usize::try_from(id)
                .ok()
                .and_then(|id| part.syms.get(id))
                .ok_or_else(|| corrupt(format!("no symbol {id}")))?;
            let si = self.simple_fluent_stratum(*name).ok_or_else(|| {
                corrupt(format!("`{name}` is not a simple fluent of this rule set"))
            })?;
            let value = read_term(r, &part.syms, floats, column(id, 0))?;
            let args = (0..r.count("argument")?)
                .map(|pos| read_term(r, &part.syms, floats, column(id, pos + 1)))
                .collect::<Result<Vec<_>, _>>()?;
            if !self.initiates(si, &args, &value) {
                return Err(corrupt(format!(
                    "no rule of this rule set initiates {name}{args:?} = {value:?}"
                )));
            }
            let mut ivs = Vec::new();
            for _ in 0..r.count("interval")? {
                let start = r.zigzag()?;
                let end = start.wrapping_add(r.varint()? as i64);
                ivs.push(Interval::try_span(start, end).ok_or_else(|| {
                    corrupt(format!("empty interval {start}..{end} of {name}{args:?}"))
                })?);
            }
            pf.push(Seed { si, args, value, ivs: IntervalList::from_intervals(ivs) });
        }
        Ok(pf)
    }

    /// Restores from a base snapshot and the deltas written after it,
    /// oldest first; nothing changes unless every part decodes.
    pub(super) fn restore_parts(&mut self, base: &[u8], deltas: &[&[u8]]) -> Result<(), RtecError> {
        let mut l = self.load(base)?;
        for delta in deltas {
            self.apply_delta(&mut l, delta)?;
        }
        self.install(l);
        Ok(())
    }

    /// Replaces the engine's state with `l`: the stores hold its facts
    /// (admitted ones sorted in, the others pending), the tables only its
    /// fluent intervals, and the next query re-derives everything else.
    fn install(&mut self, l: Loaded) {
        let mut state = CycleState::new(&self.plan);
        for f in &l.facts {
            let row = &l.terms[f.at..f.at + f.len];
            let meta = (f.seq, f.arrival);
            if f.fluent {
                let (value, args) = row.split_last().expect("a fluent row holds its value");
                state.obs.ingest(f.slot, f.seen, meta, f.time, args, value);
            } else {
                state.events.ingest(f.slot, f.seen, meta, f.time, row);
            }
        }
        state.events.admit_staged();
        state.obs.admit_staged();
        for s in l.pf {
            state.seed_fluent(s.si, &s.args, &s.value, s.ivs);
        }
        self.state = state;
        self.ingested = l.ingested;
        self.first_query = l.first_query;
        self.last_query = l.last_query;
        self.dirty_all = true;
        self.cursor = None;
    }

    /// Restore-time check of a `pf` grounding: whether some initiation rule
    /// of simple-fluent stratum `si` has a head of this arity whose constant
    /// arguments and value agree with `args` and `value`.
    fn initiates(&self, si: usize, args: &[Term], value: &Term) -> bool {
        let fits = |pat: &ArgPat, t: &Term| !matches!(pat, ArgPat::Const(c) if c != t);
        self.plan.instrs[si].rules.iter().map(|&r| &self.plan.rules.sf_rules[r as usize]).any(|r| {
            matches!(r.kind, SfKind::Initiated)
                && r.head.args.len() == args.len()
                && r.head.args.iter().zip(args).all(|(p, t)| fits(p, t))
                && fits(&r.head.value, value)
        })
    }
}

fn read_term(
    r: &mut Reader<'_>,
    syms: &[Symbol],
    floats: &mut Floats,
    col: usize,
) -> Result<Term, RtecError> {
    let head = r.varint()?;
    let unzig = |z: u64| (z >> 1) as i64 ^ -((z & 1) as i64);
    Ok(match (head & 3, head >> 2) {
        (TAG_INT, z) => Term::Int(unzig(z)),
        (TAG_SYM, id) => {
            let sym = usize::try_from(id).ok().and_then(|id| syms.get(id));
            Term::Sym(*sym.ok_or_else(|| corrupt(format!("no symbol {id}")))?)
        }
        (TAG_BOOL, b @ (0 | 1)) => Term::Bool(b == 1),
        (TAG_WIDE, 1) => Term::Int(unzig(r.varint()?)),
        (TAG_WIDE, p @ 2..=10) => {
            let mut x = [0; 8];
            let n = 10 - p as usize;
            x[..n].copy_from_slice(r.take(n)?);
            let bits = u64::from_le_bytes(x) ^ floats.0.get(col).copied().unwrap_or(0);
            floats.swap(col, bits);
            Term::float(f64::from_bits(bits))
        }
        _ => return Err(corrupt(format!("bad term head {head}"))),
    })
}
