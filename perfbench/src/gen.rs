//! Seeded inputs: the read-query lists and the write stream.
//!
//! Everything here is a pure function of the workload seed and the
//! generated dataset, so the same seed gives the same queries and the
//! same write batches. Both are *stratified*: the seed decides which
//! constants and triples a run uses, but every run covers the constant
//! domains and the predicate mix evenly, so a few heavy draws (a large
//! retailer in an IL-2 chain, a write touching a predicate with many
//! ExtVP partitions) cannot decide a run's figures.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2rdf_model::{Graph, Term, Triple};
use s2rdf_watdiv::vocab::{entity, PREFIX_HEADER};
use s2rdf_watdiv::{Dataset, EntityType, QueryTemplate, Workload};

use crate::Kind;

/// One instantiated read query.
#[derive(Debug, Clone)]
pub struct ReadQuery {
    /// Template name as the paper uses it (`L1`, `IL-2-7`, `ST-3-1`, …).
    pub template: &'static str,
    /// The SPARQL text, prefixes included.
    pub text: String,
}

/// The templates each workload reads with.
fn templates(kind: Kind) -> Vec<QueryTemplate> {
    let il = |group: &str| {
        Workload::incremental_linear()
            .templates
            .into_iter()
            .filter(|t| t.name.starts_with(group))
            .collect::<Vec<_>>()
    };
    match kind {
        Kind::Bound => {
            let mut t = Workload::basic_testing().templates;
            t.extend(il("IL-1-"));
            t.extend(il("IL-2-"));
            t
        }
        Kind::Cold => Workload::basic_testing().templates,
    }
}

/// The `wsdbm:` kind name and population of an entity type, as the
/// WatDiv generator numbers them.
fn population(ty: EntityType, data: &Dataset) -> (&'static str, usize) {
    let c = &data.counts;
    match ty {
        EntityType::User => ("User", c.users),
        EntityType::Retailer => ("Retailer", c.retailers),
        EntityType::Website => ("Website", c.websites),
        EntityType::City => ("City", c.cities),
        EntityType::Country => ("Country", c.countries),
        EntityType::Topic => ("Topic", c.topics),
        EntityType::ProductCategory => ("ProductCategory", c.categories),
        EntityType::AgeGroup => ("AgeGroup", c.age_groups),
        EntityType::SubGenre => ("SubGenre", c.subgenres),
    }
}

/// The read-query list of a workload: rounds over all of its templates,
/// each round in a fresh seeded order, so any prefix of whole rounds
/// holds every template equally often. Each placeholder walks a seeded
/// permutation of its entity population, one step per round: a run of
/// `r` rounds draws `r` distinct constants, and a population smaller than
/// `r` (the 15 retailers at SF3) is covered evenly.
pub fn read_queries(kind: Kind, data: &Dataset, seed: u64) -> Vec<ReadQuery> {
    let templates = templates(kind);
    let rounds = 60;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7175_6572_795f_6c73);
    let walks: Vec<Vec<Vec<usize>>> = templates
        .iter()
        .map(|t| {
            t.mappings
                .iter()
                .map(|&(_, ty)| permutation(population(ty, data).1, &mut rng))
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(rounds * templates.len());
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..templates.len()).collect();
        shuffle(&mut order, &mut rng);
        for i in order {
            let t = &templates[i];
            let mut body = t.body.to_string();
            for (&(var, ty), walk) in t.mappings.iter().zip(&walks[i]) {
                let term = entity(population(ty, data).0, walk[round % walk.len()]);
                body = body.replace(&format!("%{var}%"), &term.to_string());
            }
            out.push(ReadQuery {
                template: t.name,
                text: format!("{PREFIX_HEADER}{body}"),
            });
        }
    }
    out
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(&mut v, rng);
    v
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// A Weyl sequence over `[0, 1)`: consecutive points step by the golden
/// ratio, so every prefix spreads evenly. Mapped onto a predicate-sorted
/// triple list, any run of picks covers the predicates in proportion to
/// their frequency.
struct Weyl(f64);

impl Weyl {
    fn next(&mut self, len: usize) -> usize {
        const STEP: f64 = 0.618_033_988_749_894_9;
        self.0 = (self.0 + STEP).fract();
        ((self.0 * len as f64) as usize).min(len - 1)
    }
}

/// The seeded write stream, plus the graph the store must hold after the
/// batches drawn so far (the durability gate's expected set).
pub struct WriteStream {
    /// The generated graph's triples, sorted by predicate.
    base: Vec<Triple>,
    deleted: Vec<bool>,
    deleted_count: usize,
    /// Positions in `base` of each subject's triples.
    by_subject: HashMap<Term, Vec<usize>>,
    inserted: Vec<Triple>,
    fresh_subjects: usize,
    /// One sequence for deletes and inserts alike: two sequences would
    /// keep a seed-dependent phase between them, and whether a batch's
    /// insert and delete touch the same predicate changes its cost.
    picks: Weyl,
}

impl WriteStream {
    pub fn new(graph: &Graph, seed: u64) -> WriteStream {
        let mut encoded = graph.triples().to_vec();
        encoded.sort_by_key(|t| (t.p, t.s, t.o));
        let base: Vec<Triple> = encoded.into_iter().map(|t| graph.decode(t)).collect();
        let mut by_subject: HashMap<Term, Vec<usize>> = HashMap::new();
        for (i, t) in base.iter().enumerate() {
            by_subject.entry(t.s.clone()).or_default().push(i);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7772_6974_6573);
        WriteStream {
            deleted: vec![false; base.len()],
            deleted_count: 0,
            base,
            by_subject,
            inserted: Vec::new(),
            fresh_subjects: 0,
            picks: Weyl(rng.gen_range(0.0..1.0)),
        }
    }

    /// Draws the next batch of `n_ins` inserts and `n_del` deletes and
    /// applies it to the expected set. Deletes remove generated triples
    /// still present. Each insert group copies a generated triple's pair,
    /// then its subject's other pairs, onto a fresh subject: new triples
    /// look like existing ones to the ExtVP correlations and never
    /// collide with the graph.
    pub fn next_batch(&mut self, n_ins: usize, n_del: usize) -> (Vec<Triple>, Vec<Triple>) {
        let len = self.base.len();
        let mut deletes = Vec::with_capacity(n_del);
        while deletes.len() < n_del && self.deleted_count < len {
            let mut i = self.picks.next(len);
            while self.deleted[i] {
                i = (i + 1) % len;
            }
            self.deleted[i] = true;
            self.deleted_count += 1;
            deletes.push(self.base[i].clone());
        }
        let mut inserts = Vec::with_capacity(n_ins);
        while inserts.len() < n_ins {
            let pick = self.picks.next(len);
            self.fresh_subjects += 1;
            let subject = Term::iri(format!(
                "http://db.uwaterloo.ca/~galuc/wsdbm/BenchSubject{}",
                self.fresh_subjects
            ));
            let siblings = &self.by_subject[&self.base[pick].s];
            let pairs =
                std::iter::once(pick).chain(siblings.iter().copied().filter(|&j| j != pick));
            for j in pairs.take(n_ins - inserts.len()) {
                let t = &self.base[j];
                inserts.push(Triple::new(subject.clone(), t.p.clone(), t.o.clone()));
            }
        }
        self.inserted.extend(inserts.iter().cloned());
        (inserts, deletes)
    }

    /// Number of triples the store must hold.
    pub fn expected_len(&self) -> usize {
        self.base.len() - self.deleted_count + self.inserted.len()
    }

    /// The expected graph, for a fresh reference build.
    pub fn expected_graph(&self) -> Graph {
        let kept = self
            .base
            .iter()
            .zip(&self.deleted)
            .filter(|(_, &d)| !d)
            .map(|(t, _)| t.clone());
        Graph::from_triples(kept.chain(self.inserted.iter().cloned()))
    }
}
