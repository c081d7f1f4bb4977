//! Order-insensitive result digests for the correctness gates.
//!
//! A digest is the row count plus the wrapping sum of one 64-bit hash per
//! row, where a row hashes its `(variable, term)` cells in variable-name
//! order. Summing makes it independent of row order while still counting
//! duplicate rows, so two digests agree exactly when the solution
//! multisets agree (up to hash collisions).

use std::fmt;
use std::hash::{Hash, Hasher};

use s2rdf_columnar::{Table, NULL_ID};
use s2rdf_core::Solutions;
use s2rdf_model::{Dictionary, Term, TermId};

/// Row count and multiset hash of one query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rows/{:016x}", self.rows, self.hash)
    }
}

const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fixed-key word-at-a-time hasher: deterministic across runs (unlike
/// std's `RandomState`), and fast enough to digest million-row results.
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = WordHasher(0);
    value.hash(&mut h);
    h.finish()
}

/// Hash of one row; `cells` pairs each variable's hash with its term, in
/// variable-name order.
fn row_hash<'a>(cells: impl Iterator<Item = (u64, Option<&'a Term>)>) -> u64 {
    let mut h = WordHasher(0);
    for (var, term) in cells {
        h.add(var);
        h.add(term.map_or(0, hash_of));
    }
    h.finish()
}

/// Variable positions in name order, with each name's hash.
fn name_order(vars: &[String]) -> Vec<(usize, u64)> {
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_by(|&a, &b| vars[a].cmp(&vars[b]));
    order.into_iter().map(|i| (i, hash_of(&vars[i]))).collect()
}

/// Digest of decoded solutions, as the engines return them.
pub fn solutions(s: &Solutions) -> Digest {
    let order = name_order(&s.vars);
    let hash = s.rows.iter().fold(0u64, |acc, row| {
        let cells = order.iter().map(|&(i, var)| (var, row[i].as_ref()));
        acc.wrapping_add(row_hash(cells))
    });
    Digest {
        rows: s.rows.len(),
        hash,
    }
}

/// The columns of `vars` in name order, each with its variable's hash;
/// `None` for a variable the pattern never binds.
fn projected_columns<'t>(table: &'t Table, vars: &[String]) -> Vec<(u64, Option<&'t [u32]>)> {
    name_order(vars)
        .into_iter()
        .map(|(i, var)| {
            (
                var,
                table.schema().index_of(&vars[i]).map(|c| table.column(c)),
            )
        })
        .collect()
}

/// Digest of an id table projected to `vars` and decoded here through the
/// store dictionary: an independent check of the engine's decode path.
pub fn id_table(table: &Table, vars: &[String], dict: &Dictionary) -> Result<Digest, String> {
    let cols = projected_columns(table, vars);
    let mut hash = 0u64;
    let mut cells: Vec<(u64, Option<&Term>)> = Vec::with_capacity(vars.len());
    for row in 0..table.num_rows() {
        cells.clear();
        for &(var, col) in &cols {
            let term = match col.map(|c| c[row]) {
                None | Some(NULL_ID) => None,
                Some(id) => Some(
                    dict.get(TermId(id))
                        .ok_or_else(|| format!("id {id} is not in the dictionary"))?,
                ),
            };
            cells.push((var, term));
        }
        hash = hash.wrapping_add(row_hash(cells.iter().copied()));
    }
    Ok(Digest {
        rows: table.num_rows(),
        hash,
    })
}

/// Hash of a text, for the query-list fingerprint.
pub fn text_hash(text: &str) -> u64 {
    hash_of(text)
}

/// Combines digests into one value, for the run record: equal seeds must
/// give equal combined digests.
pub fn combine(digests: impl IntoIterator<Item = Digest>) -> u64 {
    let mut h = WordHasher(0);
    for d in digests {
        h.add(d.hash);
        h.add(d.rows as u64);
    }
    h.finish()
}
