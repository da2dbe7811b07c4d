//! `setup_s`: the time to build a workload's inputs, measured in slices
//! spread over the whole run.
//!
//! One set-up takes from 0.3 ms (`session-storm`) to 0.2 s
//! (`city-district`). The host's speed switches between two levels about
//! 1.6× apart that each last from a tenth of a second to seconds, so a batch
//! timed all at once before the workload reads fast or slow with the moment
//! it ran in. The runners call [`Setup::tick`] at operation boundaries, with
//! nothing in flight, and the set-ups run in equal slices at evenly spaced
//! boundaries from before the first operation to after the last. `setup_s`
//! is the total time of all slices over the number of set-ups: it averages
//! the host's speed over the same stretch of time as the workload's own
//! figures.

use crate::stats::Report;
use crate::trace::Tracer;
use std::time::Instant;

pub struct Setup<'a> {
    build: Box<dyn FnMut(u64) -> u64 + 'a>,
    tracer: &'a Tracer,
    seed: u64,
    slices: usize,
    per_slice: usize,
    slices_run: usize,
    secs: f64,
    /// Input fingerprint of every build, in build order.
    prints: Vec<u64>,
}

impl<'a> Setup<'a> {
    /// Builds the inputs at `seed` once and keeps them; that build is the
    /// first of the first of `slices` slices of `per_slice` set-ups. `build`
    /// returns the inputs and their fingerprint.
    pub fn start<T>(
        seed: u64,
        (slices, per_slice): (usize, usize),
        tracer: &'a Tracer,
        mut build: impl FnMut(u64) -> (T, u64) + 'a,
    ) -> (T, Setup<'a>) {
        let t = Instant::now();
        let (inputs, print) = build(seed);
        let secs = t.elapsed().as_secs_f64();
        let setup = Setup {
            build: Box::new(move |s| build(s).1),
            tracer,
            seed,
            slices: slices.max(2),
            per_slice: per_slice.max(1),
            slices_run: 0,
            secs,
            prints: vec![print],
        };
        (inputs, setup)
    }

    /// Whether a slice is due once `done` of `ops` operations have ended.
    /// Slice `k` runs at boundary `k * ops / (slices - 1)`.
    pub fn due(&self, done: usize, ops: usize) -> bool {
        self.slices_run < self.slices && self.slices_run * ops / (self.slices - 1) <= done
    }

    /// Runs every slice due once `done` of `ops` operations have ended.
    /// Build number 1 uses `seed + 1`, every other build `seed`.
    pub fn tick(&mut self, done: usize, ops: usize) {
        while self.due(done, ops) {
            let end = (self.slices_run + 1) * self.per_slice;
            let tracer = self.tracer;
            let t = Instant::now();
            tracer.span("setup", 0, || {
                while self.prints.len() < end {
                    let s = if self.prints.len() == 1 {
                        self.seed.wrapping_add(1)
                    } else {
                        self.seed
                    };
                    let print = (self.build)(s);
                    self.prints.push(print);
                }
            });
            self.secs += t.elapsed().as_secs_f64();
            self.slices_run += 1;
        }
    }

    /// Runs any slices left, checks that equal seeds gave identical inputs
    /// and different seeds different ones, and returns the mean time of one
    /// set-up in seconds.
    pub fn finish(mut self, rep: &mut Report) -> f64 {
        self.tick(usize::MAX, 1);
        let p = &self.prints;
        if p.iter().enumerate().any(|(i, &x)| i != 1 && x != p[0]) {
            rep.violation(format!(
                "seed {} gave different inputs on different set-ups",
                self.seed
            ));
        }
        if p[0] == p[1] {
            rep.violation(format!(
                "seeds {} and {} gave the same inputs",
                self.seed,
                self.seed.wrapping_add(1)
            ));
        }
        self.secs / p.len() as f64
    }
}
