//! Wire codecs for the protocol surface: [`Instance`], [`Strategy`], and
//! [`AdoptionEvent`] as JSON documents.
//!
//! These are the schemas `revmax-http` speaks (documented with examples in
//! `docs/http.md`); they are defined here in `revmax-core` so that tests,
//! benches, and any future transport share one codec built on the
//! [`crate::json`] reader/writer.
//!
//! Design points:
//!
//! * **One decoder per type, no tree** — [`read_instance`],
//!   [`read_events`] and [`read_strategy`] pull their targets straight from
//!   a [`Reader`], the workspace's single JSON grammar; no [`JsonValue`]
//!   tree is built in between. The `*_from_bytes` entry points decode a
//!   whole document, and the `*_from_value` functions are thin adapters
//!   that write a tree back out as text and read it with the same decoder.
//! * **Direct writers** — [`write_instance`], [`write_strategy`] and
//!   [`write_events`] append to a `String` without building a tree; their
//!   output is byte-identical to the [`JsonValue`] `Display` form of the
//!   same document.
//! * **Bit-exact round trips** — every `f64` (prices, probabilities,
//!   ratings, β) is written in shortest round-trip form, so
//!   `instance → JSON → instance` reproduces the instance exactly and a
//!   plan computed behind the wire matches the in-process plan to full
//!   precision (the protocol conformance suite pins 1e-9).
//! * **Validation reuse** — decoding an instance replays it through
//!   [`InstanceBuilder`], so the wire accepts exactly what the in-process
//!   API accepts; schema errors and semantic [`BuildError`]s are kept
//!   distinct (the HTTP layer maps them to 400 vs 422).
//!
//! # Instance schema
//!
//! ```json
//! {
//!   "users": 2, "items": 1, "horizon": 2, "display_limit": 1,
//!   "classes": [0],
//!   "beta": [1.0],
//!   "capacity": [2],
//!   "prices": [[10.0, 9.5]],
//!   "candidates": [[0, 0, 4.5, [0.4, 0.5]], [1, 0, 3.0, [0.3, 0.2]]],
//!   "exempt": [[0, [1]]]
//! }
//! ```
//!
//! `classes`, `beta`, `capacity`, and `exempt` are optional (builder
//! defaults apply); a candidate row is `[user, item, rating, probs]` with
//! one probability per horizon step; a `prices` row may be `null`.
//!
//! Fields may come in any order. They are staged into flat vectors (one
//! `f64` arena for all candidate probabilities, one for all prices) and
//! handed to the builder only once the object is complete. When a key
//! repeats, its first occurrence wins; unknown keys are ignored. Repeated
//! and unknown values are still read, so they must be valid JSON.
//!
//! Declared dimensions are capped *before* the builder is constructed
//! ([`MAX_WIRE_DIM`] per dimension, [`MAX_WIRE_CELLS`] for the dense
//! `items × horizon` price table), so a tiny document claiming huge
//! `users`/`items`/`horizon` is rejected with a schema error instead of
//! driving the builder into multi-GiB allocations.

use crate::error::BuildError;
use crate::events::{AdoptionEvent, AdoptionOutcome};
use crate::ids::{ItemId, Triple, UserId};
use crate::instance::{Instance, InstanceBuilder};
use crate::json::{self, JsonError, JsonValue, Kind, Reader};
use crate::strategy::Strategy;
use std::fmt;
use std::ops::Range;

/// Upper bound on each declared wire dimension (`users`, `items`,
/// `horizon`). [`InstanceBuilder`] allocates `O(items)` vectors up front
/// and the built instance carries `O(users)` candidate offsets, so an
/// untrusted document must not pick these freely up to `u32::MAX`.
pub const MAX_WIRE_DIM: u32 = 1 << 22;

/// Upper bound on the dense `items × horizon` price table a wire instance
/// may declare (~32 MiB of `f64` cells at the cap). Checked before the
/// builder is constructed, so `items * horizon` can neither exhaust memory
/// nor overflow a `Vec` capacity.
pub const MAX_WIRE_CELLS: u64 = 1 << 22;

/// Why a wire document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The JSON parses but does not match the schema.
    Schema {
        /// What was wrong, naming the offending field.
        message: String,
    },
    /// The document matches the schema but fails instance validation.
    Build(BuildError),
}

impl WireError {
    fn schema(message: impl Into<String>) -> Self {
        WireError::Schema {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Schema { message } => write!(f, "schema error: {message}"),
            WireError::Build(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::Json(e)
    }
}

impl From<BuildError> for WireError {
    fn from(e: BuildError) -> Self {
        WireError::Build(e)
    }
}

fn missing(key: &str) -> WireError {
    WireError::schema(format!("missing field `{key}`"))
}

fn read_u32(r: &mut Reader<'_>, what: &str) -> Result<u32, WireError> {
    let n = match r.peek()? {
        Kind::Number => json::exact_u32(r.number()?),
        _ => None,
    };
    n.ok_or_else(|| WireError::schema(format!("`{what}` must be a non-negative integer")))
}

fn read_f64(r: &mut Reader<'_>, what: &str) -> Result<f64, WireError> {
    if r.peek()? != Kind::Number {
        return Err(WireError::schema(format!("`{what}` must be a number")));
    }
    Ok(r.number()?)
}

fn begin_array(r: &mut Reader<'_>, what: &str) -> Result<(), WireError> {
    if r.peek()? != Kind::Array {
        return Err(WireError::schema(format!("`{what}` must be an array")));
    }
    Ok(r.begin_array()?)
}

/// Moves to the next element of a fixed-shape row, which must exist.
fn row_element(r: &mut Reader<'_>, shape: &str) -> Result<(), WireError> {
    if r.next_element()? {
        Ok(())
    } else {
        Err(WireError::schema(shape))
    }
}

/// Closes a fixed-shape row, which must have no further elements.
fn row_end(r: &mut Reader<'_>, shape: &str) -> Result<(), WireError> {
    if r.next_element()? {
        Err(WireError::schema(shape))
    } else {
        Ok(())
    }
}

fn read_f64s_into(r: &mut Reader<'_>, what: &str, out: &mut Vec<f64>) -> Result<(), WireError> {
    begin_array(r, what)?;
    if r.numbers_into(out)? {
        Ok(())
    } else {
        Err(WireError::schema(format!("`{what}` must be a number")))
    }
}

fn read_f64s(r: &mut Reader<'_>, what: &str) -> Result<Vec<f64>, WireError> {
    let mut out = Vec::new();
    read_f64s_into(r, what, &mut out)?;
    Ok(out)
}

fn read_u32s(r: &mut Reader<'_>, what: &str) -> Result<Vec<u32>, WireError> {
    begin_array(r, what)?;
    let mut out = Vec::new();
    while r.next_element()? {
        out.push(read_u32(r, what)?);
    }
    Ok(out)
}

/// Decodes exactly one document from `bytes` with `read`. A value that
/// read completely (or built into a [`BuildError`]) must be followed by
/// nothing but whitespace, so a build error is only reported for a
/// syntactically valid document.
fn whole<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let decoded = read(&mut r);
    if let Ok(_) | Err(WireError::Build(_)) = decoded {
        r.finish()?;
    }
    decoded
}

// ---------------------------------------------------------------------------
// Instance
// ---------------------------------------------------------------------------

/// Appends an instance as compact wire JSON (see the module docs for the
/// schema).
pub fn write_instance(out: &mut String, inst: &Instance) {
    let items = 0..inst.num_items();
    out.push_str("{\"users\":");
    json::write_u32(out, inst.num_users());
    out.push_str(",\"items\":");
    json::write_u32(out, inst.num_items());
    out.push_str(",\"horizon\":");
    json::write_u32(out, inst.horizon());
    out.push_str(",\"display_limit\":");
    json::write_u32(out, inst.display_limit());
    out.push_str(",\"classes\":");
    json::write_u32_array(out, items.clone().map(|i| inst.class_of(ItemId(i)).0));
    out.push_str(",\"beta\":");
    json::write_f64_array(out, items.clone().map(|i| inst.beta(ItemId(i))));
    out.push_str(",\"capacity\":");
    json::write_u32_array(out, items.clone().map(|i| inst.capacity(ItemId(i))));
    out.push_str(",\"prices\":[");
    for i in items.clone() {
        if i > 0 {
            out.push(',');
        }
        json::write_f64_array(out, inst.price_series(ItemId(i)).iter().copied());
    }
    out.push_str("],\"candidates\":[");
    let mut first = true;
    for u in 0..inst.num_users() {
        for cand in inst.candidates_of_user(UserId(u)) {
            out.push_str(if first { "[" } else { ",[" });
            first = false;
            json::write_u32(out, u);
            out.push(',');
            json::write_u32(out, inst.candidate_item(cand).0);
            out.push(',');
            json::write_f64(out, inst.candidate_rating(cand));
            out.push(',');
            json::write_f64_array(out, inst.candidate_probs(cand).iter().copied());
            out.push(']');
        }
    }
    out.push(']');
    if inst.has_exemptions() {
        out.push_str(",\"exempt\":[");
        let mut first = true;
        for i in items {
            let users = inst.exempt_users(ItemId(i));
            if users.is_empty() {
                continue;
            }
            out.push_str(if first { "[" } else { ",[" });
            first = false;
            json::write_u32(out, i);
            out.push(',');
            json::write_u32_array(out, users.iter().map(|u| u.0));
            out.push(']');
        }
        out.push(']');
    }
    out.push('}');
}

/// Encodes an instance as compact wire JSON text.
pub fn instance_to_json(inst: &Instance) -> String {
    // At most ~20 bytes per written number, reserved once.
    let numbers = (u64::from(inst.num_items()) + inst.num_candidates() as u64)
        * (u64::from(inst.horizon()) + 3);
    let mut out = String::with_capacity(64 + 20 * numbers as usize);
    write_instance(&mut out, inst);
    out
}

/// An instance document read field by field, before any of it reaches
/// [`InstanceBuilder`].
#[derive(Default)]
struct StagedInstance {
    users: Option<u32>,
    items: Option<u32>,
    horizon: Option<u32>,
    display_limit: Option<u32>,
    classes: Option<Vec<u32>>,
    beta: Option<Vec<f64>>,
    capacity: Option<Vec<u32>>,
    /// One entry per `prices` row: its range in `price_cells`, or `None`
    /// for a `null` row.
    prices: Option<Vec<Option<Range<usize>>>>,
    price_cells: Vec<f64>,
    /// `(user, item, rating, end of its probabilities in probs)` per
    /// candidate row; a row's probabilities start where the previous
    /// row's end.
    candidates: Option<Vec<(u32, u32, f64, usize)>>,
    probs: Vec<f64>,
    /// `(item, user)` pairs in document order.
    exempt: Option<Vec<(u32, u32)>>,
}

const CANDIDATE_ROW: &str = "a candidate row must be `[user, item, rating, probs]`";
const EXEMPT_ROW: &str = "an exempt row must be `[item, [users...]]`";

impl StagedInstance {
    fn read_prices(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        begin_array(r, "prices")?;
        let mut rows = Vec::new();
        while r.next_element()? {
            if r.peek()? == Kind::Null {
                r.null()?;
                rows.push(None);
                continue;
            }
            let start = self.price_cells.len();
            read_f64s_into(r, "prices", &mut self.price_cells)?;
            rows.push(Some(start..self.price_cells.len()));
        }
        self.prices = Some(rows);
        Ok(())
    }

    fn read_candidates(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        begin_array(r, "candidates")?;
        let mut rows = Vec::new();
        while r.next_element()? {
            begin_array(r, "candidates")?;
            row_element(r, CANDIDATE_ROW)?;
            let user = read_u32(r, "candidate user")?;
            row_element(r, CANDIDATE_ROW)?;
            let item = read_u32(r, "candidate item")?;
            row_element(r, CANDIDATE_ROW)?;
            let rating = read_f64(r, "candidate rating")?;
            row_element(r, CANDIDATE_ROW)?;
            read_f64s_into(r, "candidate probs", &mut self.probs)?;
            row_end(r, CANDIDATE_ROW)?;
            rows.push((user, item, rating, self.probs.len()));
        }
        self.candidates = Some(rows);
        Ok(())
    }

    fn read_exempt(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        begin_array(r, "exempt")?;
        let mut pairs = Vec::new();
        while r.next_element()? {
            begin_array(r, "exempt")?;
            row_element(r, EXEMPT_ROW)?;
            let item = read_u32(r, "exempt item")?;
            row_element(r, EXEMPT_ROW)?;
            for user in read_u32s(r, "exempt users")? {
                pairs.push((item, user));
            }
            row_end(r, EXEMPT_ROW)?;
        }
        self.exempt = Some(pairs);
        Ok(())
    }

    /// Checks the declared dimensions against the wire caps, then replays
    /// the staged fields through [`InstanceBuilder`].
    fn build(self) -> Result<Instance, WireError> {
        let dim = |value: Option<u32>, what: &str| {
            let n = value.ok_or_else(|| missing(what))?;
            if n > MAX_WIRE_DIM {
                return Err(WireError::schema(format!(
                    "`{what}` is {n}, above the wire limit of {MAX_WIRE_DIM}"
                )));
            }
            Ok(n)
        };
        let users = dim(self.users, "users")?;
        let items = dim(self.items, "items")?;
        let horizon = dim(self.horizon, "horizon")?;
        let cells = u64::from(items) * u64::from(horizon);
        if cells > MAX_WIRE_CELLS {
            return Err(WireError::schema(format!(
                "`items * horizon` is {cells}, above the wire limit of {MAX_WIRE_CELLS} price cells"
            )));
        }
        let prices = self.prices.ok_or_else(|| missing("prices"))?;
        let candidates = self.candidates.ok_or_else(|| missing("candidates"))?;

        let mut b = InstanceBuilder::new(users, items, horizon);
        if let Some(k) = self.display_limit {
            b.display_limit(k);
        }
        for (i, &c) in self.classes.iter().flatten().enumerate() {
            b.item_class(i as u32, c);
        }
        for (i, &beta) in self.beta.iter().flatten().enumerate() {
            b.beta(i as u32, beta);
        }
        for (i, &q) in self.capacity.iter().flatten().enumerate() {
            b.capacity(i as u32, q);
        }
        for (i, row) in prices.into_iter().enumerate() {
            if let Some(range) = row {
                b.prices(i as u32, &self.price_cells[range]);
            }
        }
        let mut start = 0;
        for (user, item, rating, end) in candidates {
            b.candidate(user, item, &self.probs[start..end], rating);
            start = end;
        }
        for &(item, user) in self.exempt.iter().flatten() {
            b.exempt_user(item, user);
        }
        Ok(b.build()?)
    }
}

/// Reads one instance object from `r` and builds it through
/// [`InstanceBuilder`]. Schema and JSON errors stop the read where they
/// occur; a [`WireError::Build`] is returned only after the whole object
/// has been consumed.
pub fn read_instance(r: &mut Reader<'_>) -> Result<Instance, WireError> {
    if r.peek()? != Kind::Object {
        return Err(WireError::schema("an instance must be a JSON object"));
    }
    r.begin_object()?;
    let mut s = StagedInstance::default();
    while let Some(key) = r.next_key()? {
        match &*key {
            "users" if s.users.is_none() => s.users = Some(read_u32(r, "users")?),
            "items" if s.items.is_none() => s.items = Some(read_u32(r, "items")?),
            "horizon" if s.horizon.is_none() => s.horizon = Some(read_u32(r, "horizon")?),
            "display_limit" if s.display_limit.is_none() => {
                s.display_limit = Some(read_u32(r, "display_limit")?)
            }
            "classes" if s.classes.is_none() => s.classes = Some(read_u32s(r, "classes")?),
            "beta" if s.beta.is_none() => s.beta = Some(read_f64s(r, "beta")?),
            "capacity" if s.capacity.is_none() => s.capacity = Some(read_u32s(r, "capacity")?),
            "prices" if s.prices.is_none() => s.read_prices(r)?,
            "candidates" if s.candidates.is_none() => s.read_candidates(r)?,
            "exempt" if s.exempt.is_none() => s.read_exempt(r)?,
            // Repeated keys (first match wins) and unknown keys.
            _ => r.skip()?,
        }
    }
    s.build()
}

/// Decodes one wire instance document.
pub fn instance_from_bytes(bytes: &[u8]) -> Result<Instance, WireError> {
    whole(bytes, read_instance)
}

/// Decodes a wire [`JsonValue`] into an [`Instance`]: the value is written
/// back out as text and read by [`read_instance`], the one instance
/// decoder. (A programmatically built value with a non-finite number is
/// written as `null` and so rejected as a schema error.)
pub fn instance_from_value(value: &JsonValue) -> Result<Instance, WireError> {
    instance_from_bytes(value.to_string().as_bytes())
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// Appends a strategy as its wire form: an array of `[user, item, t]`
/// triples in insertion order.
pub fn write_strategy(out: &mut String, strategy: &Strategy) {
    out.push('[');
    for (idx, z) in strategy.iter().enumerate() {
        out.push_str(if idx > 0 { ",[" } else { "[" });
        json::write_u32(out, z.user.0);
        out.push(',');
        json::write_u32(out, z.item.0);
        out.push(',');
        json::write_u32(out, z.t.0);
        out.push(']');
    }
    out.push(']');
}

/// Encodes a strategy as its wire value (the tree form of
/// [`write_strategy`]'s output).
pub fn strategy_to_value(strategy: &Strategy) -> JsonValue {
    JsonValue::Array(
        strategy
            .iter()
            .map(|z| {
                JsonValue::Array(vec![
                    JsonValue::Number(f64::from(z.user.0)),
                    JsonValue::Number(f64::from(z.item.0)),
                    JsonValue::Number(f64::from(z.t.0)),
                ])
            })
            .collect(),
    )
}

const TRIPLE: &str = "a triple must have exactly 3 fields";

/// Reads a strategy: duplicates are dropped and the membership index is
/// rebuilt (every triple goes through [`Strategy::insert`]).
pub fn read_strategy(r: &mut Reader<'_>) -> Result<Strategy, WireError> {
    if r.peek()? != Kind::Array {
        return Err(WireError::schema("expected a JSON array of triples"));
    }
    r.begin_array()?;
    let mut s = Strategy::new();
    while r.next_element()? {
        if r.peek()? != Kind::Array {
            return Err(WireError::schema("expected `[u,i,t]`"));
        }
        r.begin_array()?;
        let mut fields = [0u32; 3];
        for field in &mut fields {
            row_element(r, TRIPLE)?;
            *field = read_u32(r, "triple field")?;
        }
        row_end(r, TRIPLE)?;
        let [user, item, t] = fields;
        if t == 0 {
            return Err(WireError::schema("time steps are 1-based"));
        }
        s.insert(Triple::new(user, item, t));
    }
    Ok(s)
}

/// Decodes one strategy document.
pub fn strategy_from_bytes(bytes: &[u8]) -> Result<Strategy, WireError> {
    whole(bytes, read_strategy)
}

/// Decodes a strategy wire value through [`read_strategy`] (see
/// [`instance_from_value`] for how the adapter works).
pub fn strategy_from_value(value: &JsonValue) -> Result<Strategy, WireError> {
    strategy_from_bytes(value.to_string().as_bytes())
}

// ---------------------------------------------------------------------------
// Adoption events
// ---------------------------------------------------------------------------

/// Appends an event batch as compact wire JSON: an array of
/// `{"user","item","t","outcome"}` objects.
pub fn write_events(out: &mut String, events: &[AdoptionEvent]) {
    out.push('[');
    for (idx, event) in events.iter().enumerate() {
        out.push_str(if idx > 0 { ",{\"user\":" } else { "{\"user\":" });
        json::write_u32(out, event.user.0);
        out.push_str(",\"item\":");
        json::write_u32(out, event.item.0);
        out.push_str(",\"t\":");
        json::write_u32(out, event.t.0);
        out.push_str(match event.outcome {
            AdoptionOutcome::Adopted => ",\"outcome\":\"adopted\"}",
            AdoptionOutcome::Rejected => ",\"outcome\":\"rejected\"}",
        });
    }
    out.push(']');
}

/// Encodes an event batch as compact wire JSON text.
pub fn events_to_json(events: &[AdoptionEvent]) -> String {
    let mut out = String::with_capacity(2 + events.len() * 56);
    write_events(&mut out, events);
    out
}

fn read_event(r: &mut Reader<'_>) -> Result<AdoptionEvent, WireError> {
    if r.peek()? != Kind::Object {
        return Err(WireError::schema("an event must be a JSON object"));
    }
    r.begin_object()?;
    let (mut user, mut item, mut t, mut outcome) = (None, None, None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "user" if user.is_none() => user = Some(read_u32(r, "user")?),
            "item" if item.is_none() => item = Some(read_u32(r, "item")?),
            "t" if t.is_none() => t = Some(read_u32(r, "t")?),
            "outcome" if outcome.is_none() => {
                if r.peek()? != Kind::String {
                    return Err(WireError::schema("`outcome` must be a string"));
                }
                outcome = Some(match &*r.str()? {
                    "adopted" => AdoptionOutcome::Adopted,
                    "rejected" => AdoptionOutcome::Rejected,
                    _ => {
                        return Err(WireError::schema(
                            "`outcome` must be \"adopted\" or \"rejected\"",
                        ))
                    }
                });
            }
            // Repeated keys (first match wins) and unknown keys.
            _ => r.skip()?,
        }
    }
    let user = user.ok_or_else(|| missing("user"))?;
    let item = item.ok_or_else(|| missing("item"))?;
    let t = t.ok_or_else(|| missing("t"))?;
    if t == 0 {
        return Err(WireError::schema("time steps are 1-based"));
    }
    Ok(match outcome.ok_or_else(|| missing("outcome"))? {
        AdoptionOutcome::Adopted => AdoptionEvent::adopted(user, item, t),
        AdoptionOutcome::Rejected => AdoptionEvent::rejected(user, item, t),
    })
}

/// Reads an event batch (a JSON array of events).
pub fn read_events(r: &mut Reader<'_>) -> Result<Vec<AdoptionEvent>, WireError> {
    begin_array(r, "events")?;
    let mut events = Vec::new();
    while r.next_element()? {
        events.push(read_event(r)?);
    }
    Ok(events)
}

/// Decodes one event batch document.
pub fn events_from_bytes(bytes: &[u8]) -> Result<Vec<AdoptionEvent>, WireError> {
    whole(bytes, read_events)
}

/// Decodes an event batch wire value through [`read_events`] (see
/// [`instance_from_value`] for how the adapter works).
pub fn events_from_value(value: &JsonValue) -> Result<Vec<AdoptionEvent>, WireError> {
    events_from_bytes(value.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn decode(text: &str) -> Result<Instance, WireError> {
        instance_from_bytes(text.as_bytes())
    }

    fn sample_instance() -> Instance {
        let mut b = InstanceBuilder::new(3, 2, 4);
        b.display_limit(2)
            .item_class(0, 1)
            .item_class(1, 0)
            .capacity(0, 1)
            .capacity(1, 2)
            .beta(0, 0.25)
            .beta(1, 1.0)
            .prices(0, &[10.0, 9.5, 9.0, 8.5])
            .prices(1, &[5.0, 5.0, 5.5, 5.5])
            .candidate(0, 0, &[0.5, 0.4, 0.3, 0.2], 4.5)
            .candidate(0, 1, &[0.1, 0.2, 0.3, 0.4], 3.0)
            .candidate(1, 0, &[1.0 / 3.0, 0.25, 0.2, 0.125], 2.5)
            .candidate(2, 1, &[0.9, 0.0, 0.0, 0.1], 5.0)
            .exempt_user(0, 2);
        b.build().expect("sample instance is valid")
    }

    /// The tree form of an instance, built the way the codec did before it
    /// had a direct writer: the reference the writer must match byte for
    /// byte.
    fn instance_tree(inst: &Instance) -> JsonValue {
        let items = 0..inst.num_items();
        let classes = items.clone().map(|i| f64::from(inst.class_of(ItemId(i)).0));
        let beta = items.clone().map(|i| inst.beta(ItemId(i)));
        let capacity = items.clone().map(|i| f64::from(inst.capacity(ItemId(i))));
        let prices = items
            .clone()
            .map(|i| json::number_array(inst.price_series(ItemId(i)).iter().copied()))
            .collect();
        let mut candidates = Vec::new();
        for u in 0..inst.num_users() {
            for cand in inst.candidates_of_user(UserId(u)) {
                candidates.push(JsonValue::Array(vec![
                    JsonValue::Number(f64::from(u)),
                    JsonValue::Number(f64::from(inst.candidate_item(cand).0)),
                    JsonValue::Number(inst.candidate_rating(cand)),
                    json::number_array(inst.candidate_probs(cand).iter().copied()),
                ]));
            }
        }
        let mut pairs = vec![
            ("users", JsonValue::Number(f64::from(inst.num_users()))),
            ("items", JsonValue::Number(f64::from(inst.num_items()))),
            ("horizon", JsonValue::Number(f64::from(inst.horizon()))),
            (
                "display_limit",
                JsonValue::Number(f64::from(inst.display_limit())),
            ),
            ("classes", json::number_array(classes)),
            ("beta", json::number_array(beta)),
            ("capacity", json::number_array(capacity)),
            ("prices", JsonValue::Array(prices)),
            ("candidates", JsonValue::Array(candidates)),
        ];
        if inst.has_exemptions() {
            let exempt = (0..inst.num_items())
                .filter(|&i| !inst.exempt_users(ItemId(i)).is_empty())
                .map(|i| {
                    JsonValue::Array(vec![
                        JsonValue::Number(f64::from(i)),
                        json::number_array(
                            inst.exempt_users(ItemId(i)).iter().map(|u| f64::from(u.0)),
                        ),
                    ])
                })
                .collect();
            pairs.push(("exempt", JsonValue::Array(exempt)));
        }
        json::object(pairs)
    }

    fn event_tree(event: &AdoptionEvent) -> JsonValue {
        let outcome = match event.outcome {
            AdoptionOutcome::Adopted => "adopted",
            AdoptionOutcome::Rejected => "rejected",
        };
        json::object(vec![
            ("user", JsonValue::Number(f64::from(event.user.0))),
            ("item", JsonValue::Number(f64::from(event.item.0))),
            ("t", JsonValue::Number(f64::from(event.t.0))),
            ("outcome", JsonValue::String(outcome.to_string())),
        ])
    }

    /// Finite values that stress shortest round-trip formatting.
    const EDGE_VALUES: [f64; 6] = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, 0.0];

    fn random_instance(rng: &mut StdRng) -> Instance {
        let users = rng.gen_range(1u32..=6);
        let items = rng.gen_range(1u32..=4);
        let horizon = rng.gen_range(1u32..=5);
        let mut b = InstanceBuilder::new(users, items, horizon);
        b.display_limit(rng.gen_range(1u32..=3));
        let unit = |rng: &mut StdRng| {
            if rng.gen_bool(0.3) {
                [-0.0, 5e-324, 0.0, 1.0][rng.gen_range(0..4usize)]
            } else {
                rng.gen_range(0.0..1.0)
            }
        };
        for i in 0..items {
            b.item_class(i, rng.gen_range(0..items))
                .capacity(i, rng.gen_range(0u32..=users))
                .beta(i, unit(rng));
            let series: Vec<f64> = (0..horizon)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        EDGE_VALUES[rng.gen_range(0..3usize)]
                    } else {
                        rng.gen_range(0.0..100.0)
                    }
                })
                .collect();
            b.prices(i, &series);
            if rng.gen_bool(0.3) {
                b.exempt_user(i, rng.gen_range(0..users));
            }
        }
        for u in 0..users {
            for i in 0..items {
                if rng.gen_bool(0.6) {
                    let probs: Vec<f64> = (0..horizon).map(|_| unit(rng)).collect();
                    let rating = if rng.gen_bool(0.3) {
                        EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
                    } else {
                        rng.gen_range(-5.0..5.0)
                    };
                    b.candidate(u, i, &probs, rating);
                }
            }
        }
        b.build().expect("random instance is valid")
    }

    fn random_strategy(rng: &mut StdRng, len: usize) -> Strategy {
        (0..len)
            .map(|_| {
                Triple::new(
                    rng.gen_range(0..u32::MAX),
                    rng.gen_range(0..1000),
                    rng.gen_range(1..=u32::MAX),
                )
            })
            .collect()
    }

    fn assert_instances_equal(a: &Instance, b: &Instance) {
        assert_eq!(a.num_users(), b.num_users());
        assert_eq!(a.num_items(), b.num_items());
        assert_eq!(a.horizon(), b.horizon());
        assert_eq!(a.display_limit(), b.display_limit());
        for i in 0..a.num_items() {
            let i = ItemId(i);
            assert_eq!(a.class_of(i), b.class_of(i));
            assert_eq!(a.capacity(i), b.capacity(i));
            assert_eq!(a.beta(i).to_bits(), b.beta(i).to_bits());
            let (pa, pb) = (a.price_series(i), b.price_series(i));
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.exempt_users(i), b.exempt_users(i));
        }
        assert_eq!(a.num_candidates(), b.num_candidates());
        for u in 0..a.num_users() {
            let u = UserId(u);
            let ca: Vec<_> = a.candidates_of_user(u).collect();
            let cb: Vec<_> = b.candidates_of_user(u).collect();
            assert_eq!(ca.len(), cb.len());
            for (x, y) in ca.iter().zip(&cb) {
                assert_eq!(a.candidate_item(*x), b.candidate_item(*y));
                assert_eq!(
                    a.candidate_rating(*x).to_bits(),
                    b.candidate_rating(*y).to_bits()
                );
                let (qa, qb) = (a.candidate_probs(*x), b.candidate_probs(*y));
                for (p, q) in qa.iter().zip(qb) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

    #[test]
    fn instance_round_trips_bit_exactly() {
        let inst = sample_instance();
        let text = instance_to_json(&inst);
        let back = decode(&text).expect("round trip parses");
        assert_instances_equal(&inst, &back);
        // And a second hop is stable.
        assert_eq!(text, instance_to_json(&back));
        // The tree adapter reads the same document identically.
        let via_value =
            instance_from_value(&json::parse(&text).expect("valid JSON")).expect("adapter decodes");
        assert_instances_equal(&inst, &via_value);
    }

    #[test]
    fn direct_writers_match_the_tree_display_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..200 {
            let inst = random_instance(&mut rng);
            let text = instance_to_json(&inst);
            assert_eq!(
                text,
                instance_tree(&inst).to_string(),
                "instance case {case}"
            );
            // Round trip through the tree parser is bit-exact (the text is
            // canonical, so bit-equal numbers re-print identically) ...
            let value = json::parse(&text).expect("writer output parses");
            assert_eq!(value.to_string(), text, "instance case {case}");
            // ... and through the streaming decoder.
            let back = decode(&text).expect("writer output decodes");
            assert_instances_equal(&inst, &back);

            let len = [0, 1, 2, 500][case % 4];
            let strategy = random_strategy(&mut rng, len);
            let mut direct = String::new();
            write_strategy(&mut direct, &strategy);
            assert_eq!(direct, strategy_to_value(&strategy).to_string());
            assert_eq!(direct, strategy.to_json());
            assert_eq!(json::parse(&direct).expect("parses").to_string(), direct);
            let back = strategy_from_bytes(direct.as_bytes()).expect("decodes");
            assert_eq!(back.as_slice(), strategy.as_slice());

            let events: Vec<AdoptionEvent> = strategy
                .iter()
                .take(len.min(40))
                .map(|z| {
                    if rng.gen_bool(0.5) {
                        AdoptionEvent::adopted(z.user.0, z.item.0, z.t.0)
                    } else {
                        AdoptionEvent::rejected(z.user.0, z.item.0, z.t.0)
                    }
                })
                .collect();
            let direct = events_to_json(&events);
            let tree = JsonValue::Array(events.iter().map(event_tree).collect());
            assert_eq!(direct, tree.to_string());
            assert_eq!(json::parse(&direct).expect("parses"), tree);
            assert_eq!(
                events_from_bytes(direct.as_bytes()).expect("decodes"),
                events
            );
        }
    }

    #[test]
    fn instance_fields_may_come_in_any_order() {
        let text = r#"{"candidates": [[1, 0, 3.0, [0.25, 0.5]], [0, 0, 4.5, [0.5, 0.25]]],
                       "prices": [[2.0, 1.0], null], "exempt": [[0, [1]]],
                       "horizon": 2, "beta": [0.5, 1], "items": 2, "users": 2}"#;
        let inst = decode(text).expect("any field order decodes");
        assert_eq!(
            (inst.num_users(), inst.num_items(), inst.horizon()),
            (2, 2, 2)
        );
        assert_eq!(inst.num_candidates(), 2);
        assert_eq!(inst.beta(ItemId(0)), 0.5);
        assert_eq!(inst.exempt_users(ItemId(0)), &[UserId(1)]);
    }

    #[test]
    fn repeated_keys_keep_the_first_and_unknown_keys_must_still_parse() {
        let base = r#""items": 1, "horizon": 1, "prices": [[1.0]], "candidates": []"#;
        // First match wins, even when the repeat would not type-check.
        let inst = decode(&format!(r#"{{"users": 2, "users": "x", {base}}}"#))
            .expect("a repeated key is skipped");
        assert_eq!(inst.num_users(), 2);
        let inst = decode(&format!(
            r#"{{"users": 1, "note": {{"nested": [1, "é"]}}, {base}}}"#
        ))
        .expect("unknown keys are ignored");
        assert_eq!(inst.num_users(), 1);
        // Skipped values are still validated.
        for bad in [
            format!(r#"{{"users": 1, "note": [1,], {base}}}"#),
            format!(r#"{{"users": 1, "users": 1e999, {base}}}"#),
            format!(r#"{{"users": 1, "note": "\ud800", {base}}}"#),
        ] {
            assert!(
                matches!(decode(&bad), Err(WireError::Json(_))),
                "accepted {bad}"
            );
        }
        let mut invalid_utf8 = format!(r#"{{"users": 1, "note": "??", {base}}}"#).into_bytes();
        let at = invalid_utf8
            .iter()
            .position(|&b| b == b'?')
            .expect("marker");
        invalid_utf8[at] = 0xff;
        assert!(matches!(
            instance_from_bytes(&invalid_utf8),
            Err(WireError::Json(_))
        ));
    }

    #[test]
    fn build_errors_need_a_syntactically_complete_document() {
        let bad = r#"{"users": 1, "items": 1, "horizon": 1,
                      "prices": [[1.0]], "candidates": [[0, 0, 0.0, [1.5]]]}"#;
        assert!(matches!(decode(bad), Err(WireError::Build(_))));
        assert!(matches!(
            decode(&format!("{bad} x")),
            Err(WireError::Json(_))
        ));
    }

    #[test]
    fn instance_decode_distinguishes_schema_from_build_errors() {
        assert!(matches!(decode("{not json}"), Err(WireError::Json(_))));
        assert!(matches!(decode("[1,2,3]"), Err(WireError::Schema { .. })));
        assert!(matches!(
            decode(r#"{"users": 1, "items": 1}"#),
            Err(WireError::Schema { .. })
        ));
        // Wrong-typed field.
        assert!(matches!(
            decode(
                r#"{"users": "two", "items": 1, "horizon": 1, "prices": [[1.0]], "candidates": []}"#
            ),
            Err(WireError::Schema { .. })
        ));
        // Schema-valid but semantically invalid: probability > 1 is a
        // BuildError from the replayed InstanceBuilder.
        let bad = r#"{"users": 1, "items": 1, "horizon": 1,
                      "prices": [[1.0]], "candidates": [[0, 0, 0.0, [1.5]]]}"#;
        assert!(matches!(
            decode(bad),
            Err(WireError::Build(BuildError::InvalidProbability { .. }))
        ));
        // Horizon-length mismatch in a candidate row, same split.
        let bad = r#"{"users": 1, "items": 1, "horizon": 2,
                      "prices": [[1.0, 1.0]], "candidates": [[0, 0, 0.0, [0.5]]]}"#;
        assert!(matches!(
            decode(bad),
            Err(WireError::Build(BuildError::ProbabilitySeriesLength { .. }))
        ));
        // Row shapes.
        for rows in ["[[0, 0, 0.0]]", "[[0, 0, 0.0, [0.5], 1]]", "[5]"] {
            let text = format!(
                r#"{{"users": 1, "items": 1, "horizon": 1, "prices": [[1.0]], "candidates": {rows}}}"#
            );
            assert!(
                matches!(decode(&text), Err(WireError::Schema { .. })),
                "accepted candidates {rows}"
            );
        }
    }

    #[test]
    fn instance_decode_caps_declared_dimensions_before_allocating() {
        // A ~100-byte document claiming u32::MAX-sized dimensions must be
        // rejected as a schema error without touching the builder (which
        // would allocate O(items) + O(items * horizon)).
        let max = u32::MAX;
        for body in [
            format!(
                r#"{{"users": {max}, "items": 1, "horizon": 1, "prices": [[1.0]], "candidates": []}}"#
            ),
            format!(
                r#"{{"users": 1, "items": {max}, "horizon": 1, "prices": [], "candidates": []}}"#
            ),
            format!(
                r#"{{"users": 1, "items": 1, "horizon": {max}, "prices": [null], "candidates": []}}"#
            ),
        ] {
            assert!(
                matches!(decode(&body), Err(WireError::Schema { .. })),
                "accepted oversized dimension in {body}"
            );
        }
        // Each dimension under MAX_WIRE_DIM, but the dense price table
        // (items * horizon) over MAX_WIRE_CELLS: also rejected up front.
        let dim = MAX_WIRE_DIM;
        let body = format!(
            r#"{{"users": 1, "items": {dim}, "horizon": {dim}, "prices": [], "candidates": []}}"#
        );
        match decode(&body) {
            Err(WireError::Schema { message }) => {
                assert!(
                    message.contains("items * horizon"),
                    "wrong error: {message}"
                )
            }
            other => panic!("expected a cells-cap schema error, got {other:?}"),
        }
        // At the cap itself the document passes the schema gate and reaches
        // builder validation (`display_limit: 0` fails there, cheaply).
        let body = format!(
            r#"{{"users": 1, "items": 1, "horizon": {}, "display_limit": 0, "prices": [null], "candidates": []}}"#,
            MAX_WIRE_CELLS
        );
        assert!(
            matches!(
                decode(&body),
                Err(WireError::Build(BuildError::ZeroDisplayLimit))
            ),
            "an in-cap document should reach builder validation"
        );
    }

    #[test]
    fn strategy_value_round_trip_matches_text_codec() {
        let s: Strategy = vec![
            Triple::new(3, 1, 2),
            Triple::new(0, 0, 1),
            Triple::new(7, 4, 5),
        ]
        .into_iter()
        .collect();
        let value = strategy_to_value(&s);
        assert_eq!(value.to_string(), s.to_json());
        let back = strategy_from_value(&value).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.as_slice(), s.as_slice());
    }

    #[test]
    fn strategy_value_rejects_malformed_rows() {
        for bad in [
            "{}",
            "[[1,2]]",
            "[[1,2,3,4]]",
            "[[1,2,0]]",
            "[[1,2,3.5]]",
            "[[1,2,\"x\"]]",
            "[4]",
        ] {
            let value = json::parse(bad).expect("valid JSON");
            assert!(
                strategy_from_value(&value).is_err(),
                "accepted malformed {bad:?}"
            );
        }
    }

    #[test]
    fn events_round_trip() {
        let events = vec![
            AdoptionEvent::adopted(0, 1, 2),
            AdoptionEvent::rejected(3, 0, 4),
        ];
        let text = events_to_json(&events);
        let value = json::parse(&text).expect("valid JSON");
        let back = events_from_value(&value).expect("round trip");
        assert_eq!(back, events);
        assert!(back[0].is_adoption());
        assert!(!back[1].is_adoption());
        // Field order is free; repeats keep the first; unknown keys skip.
        let back = events_from_bytes(
            br#"[{"outcome":"rejected","t":4,"x":[{}],"item":0,"user":3,"user":9}]"#,
        )
        .expect("reordered event decodes");
        assert_eq!(back, vec![AdoptionEvent::rejected(3, 0, 4)]);
    }

    #[test]
    fn events_reject_malformed_rows() {
        for bad in [
            r#"{"user":0}"#,
            r#"[{"user":0,"item":1,"t":2}]"#,
            r#"[{"user":0,"item":1,"t":0,"outcome":"adopted"}]"#,
            r#"[{"user":0,"item":1,"t":2,"outcome":"maybe"}]"#,
            r#"[{"user":-1,"item":1,"t":2,"outcome":"adopted"}]"#,
            r#"[{"user":0,"item":1,"t":2,"outcome":3}]"#,
        ] {
            let value = json::parse(bad).expect("valid JSON");
            assert!(
                events_from_value(&value).is_err(),
                "accepted malformed {bad:?}"
            );
        }
    }
}
