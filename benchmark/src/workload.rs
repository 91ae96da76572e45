//! The four traffic mixes and the seeded request schedule of each.
//!
//! Every workload is one process and a closed loop: its one client sends the
//! next request only when the previous reply has arrived. The `why` strings are
//! the one-line versions of the reasons in README.md and BENCHMARK.json.

use crate::templates::{template_index, Rng, TEMPLATES};

/// How requests reach the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `Session::query` on an in-process `QueryService`.
    InProcess,
    /// `client::Client::run` against `serve_tcp` on loopback, the whole
    /// process on one CPU ([`crate::sys::pin_to_one_cpu`]).
    Tcp,
}

/// One traffic mix.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// TPC-H scale factor of the archive the program opens.
    pub scale_factor: f64,
    /// Templates in the mix.
    pub templates: &'static [&'static str],
    /// Distinct texts generated per template.
    pub variants: usize,
    /// `false`: a round sends every variant of every template (the working
    /// set fits the program's caches, so after warm-up every request hits).
    /// `true`: round `r` sends variant `r % variants` of every template, so
    /// a text returns only after `templates × (variants − 1)` other texts —
    /// more than the plan cache (256) and prepared cache (64) hold, so every
    /// request misses both.
    pub cycle_variants: bool,
    /// In-process session or TCP loopback.
    pub transport: Transport,
}

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan-agg",
        why:
            "Q1 (aggregate-bound) + Q6 (scan-bound) warm in-process: engine.exec is nearly all of \
              the time, so scan-kernel, fused-loop and aggregate-store changes show here",
        scale_factor: 0.05,
        templates: &["q1", "q6"],
        variants: 4,
        cycle_variants: false,
        transport: Transport::InProcess,
    },
    Workload {
        name: "join-groupby",
        why: "Q3 Q5 Q9 Q10 Q13 Q18 Q21 warm in-process: joins, semi/anti/outer, top-k, and the \
              aggregate store at 10^4-10^5 groups where scan-agg uses it at 4",
        scale_factor: 0.05,
        templates: &["q3", "q5", "q9", "q10", "q13", "q18", "q21"],
        variants: 3,
        cycle_variants: false,
        transport: Transport::InProcess,
    },
    Workload {
        name: "adhoc-miss",
        why:
            "all 22 templates x 16 texts cycled: 352 texts exceed the plan (256) and prepared (64) \
              caches, so every request pays sql + optimizer + sc + db load",
        scale_factor: 0.002,
        templates: &[
            "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10", "q11", "q12", "q13",
            "q14", "q15", "q16", "q17", "q18", "q19", "q20", "q21", "q22",
        ],
        variants: 16,
        cycle_variants: true,
        transport: Transport::InProcess,
    },
    Workload {
        name: "served-tcp",
        why: "sub-millisecond warm queries plus a kilobyte row export over loopback TCP, one \
              connection, server and client on one core: the only place wire, socket and \
              cache-lookup costs are visible",
        scale_factor: 0.01,
        templates: &["q3", "q6", "q11", "q14", "q15", "x1"],
        variants: 8,
        cycle_variants: false,
        transport: Transport::Tcp,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request text.
pub struct Text {
    /// Index into [`TEMPLATES`].
    pub template: usize,
    /// Position of the template inside the workload's mix.
    pub slot: usize,
    /// Variant number inside the template.
    pub variant: usize,
    /// The SQL the program receives.
    pub sql: String,
}

/// The request texts of one workload for one seed, and the order in which
/// the client sends them.
pub struct Schedule {
    /// Every distinct text, template-major (`slot × variants + variant`).
    pub texts: Vec<Text>,
    seed: u64,
    variants: usize,
    cycle_variants: bool,
}

impl Schedule {
    /// Generates the texts of `workload` for `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Schedule {
        let mut texts = Vec::with_capacity(workload.templates.len() * workload.variants);
        for (slot, name) in workload.templates.iter().enumerate() {
            let template = template_index(name);
            for (variant, sql) in
                TEMPLATES[template].variants(seed, workload.variants).into_iter().enumerate()
            {
                texts.push(Text { template, slot, variant, sql });
            }
        }
        Schedule {
            texts,
            seed,
            variants: workload.variants,
            cycle_variants: workload.cycle_variants,
        }
    }

    /// Requests of one template per round.
    pub fn samples_per_round(&self) -> usize {
        if self.cycle_variants {
            1
        } else {
            self.variants
        }
    }

    /// The text indices of round `round`: round-robin over the templates
    /// with a per-round seeded shuffle, so a busy window on the machine
    /// spreads evenly over the templates.
    pub fn round(&self, round: usize) -> Vec<usize> {
        let mut order: Vec<usize> = if self.cycle_variants {
            let v = round % self.variants;
            (0..self.texts.len() / self.variants).map(|slot| slot * self.variants + v).collect()
        } else {
            (0..self.texts.len()).collect()
        };
        Rng::new(self.seed, &format!("round{round}")).shuffle(&mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_list(w: &Workload, seed: u64, rounds: usize) -> Vec<String> {
        let s = Schedule::new(w, seed);
        (0..rounds)
            .flat_map(|r| s.round(r))
            .map(|i| s.texts[i].sql.clone())
            .collect::<Vec<String>>()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for w in &WORKLOADS {
            let a = request_list(w, 11, 20);
            assert_eq!(a, request_list(w, 11, 20), "{}", w.name);
            assert_ne!(a, request_list(w, 12, 20), "{}", w.name);
        }
    }

    #[test]
    fn warm_rounds_send_every_text_once() {
        let w = find("join-groupby").unwrap();
        let s = Schedule::new(w, 5);
        assert_eq!(s.texts.len(), 21);
        let mut round = s.round(3);
        assert_ne!(round, s.round(4), "every round has its own order");
        round.sort_unstable();
        assert_eq!(round, (0..21).collect::<Vec<_>>());
    }

    /// The miss workload never repeats a text within the reach of the
    /// program's FIFO caches: between two sends of a text lie at least 256
    /// other distinct texts.
    #[test]
    fn cycled_rounds_outrun_the_caches() {
        let w = find("adhoc-miss").unwrap();
        let s = Schedule::new(w, 5);
        assert_eq!(s.texts.len(), 352);
        let mut distinct = std::collections::HashSet::new();
        for t in &s.texts {
            assert!(distinct.insert(legobase::sql::cache_text(&t.sql)), "duplicate text");
        }
        let sent: Vec<usize> = (0..40).flat_map(|r| s.round(r)).collect();
        let mut last_seen = std::collections::HashMap::new();
        for (at, text) in sent.iter().enumerate() {
            if let Some(prev) = last_seen.insert(*text, at) {
                assert!(at - prev > 256, "text {text} came back after {} requests", at - prev);
            }
        }
        assert_eq!(s.samples_per_round(), 1);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
        }
        assert!(find("nope").is_none());
    }
}
