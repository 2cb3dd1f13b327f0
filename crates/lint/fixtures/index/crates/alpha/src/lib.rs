//! Index fixture: one of every item shape the parser must inventory
//! exactly. `tests/item_index.rs` asserts the full inventory — counts,
//! names, fields, derives — so a tokenizer or parser regression fails
//! loudly instead of silently weakening the semantic rules.

/// Generic struct with named fields and a derive list.
#[derive(Debug, Clone)]
pub struct Station<C: ClientLike> {
    pub id: u32,
    pub radio: C,
    pub links: Vec<Link>,
    pub last_seen: Option<SimTime>,
}

/// Tuple struct: payload idents, no named fields.
#[derive(Clone, Copy)]
pub struct Rssi(pub f64);

/// Enum with unit, tuple and struct variants plus a discriminant.
pub enum Phase {
    Idle,
    Probing(Link, u8),
    Associated { ap: BssId, since: SimTime },
    Failed = 3,
}

#[derive(Clone)]
pub struct Link {
    pub peer: u32,
}

impl<C: ClientLike> Station<C> {
    pub fn new(id: u32, radio: C) -> Self {
        Station {
            id,
            radio,
            links: Vec::new(),
            last_seen: None,
        }
    }

    fn drop_links(&mut self) {
        self.links.clear();
    }
}

impl Clone for Phase {
    fn clone(&self) -> Self {
        self.replay()
    }
}

/// A clippy ban escape on a field is recorded at the attribute's line.
#[derive(Clone)]
pub struct Timed {
    #[allow(clippy::disallowed_types, reason = "fixture")]
    pub started: Instant,
}
