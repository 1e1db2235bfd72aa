//! Wrappers around the objects the benchmark hands the program, used only
//! in the traced run: they time or count the program's calls back into
//! them without touching any crate.

use haccs_core::HaccsSelector;
use haccs_fedsim::engine::ModelFactory;
use haccs_fedsim::selector::{SelectionContext, Selector};
use haccs_obs::Recorder;
use haccs_persist::{PersistError, SnapshotReader, SnapshotWriter};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A forwarding [`Selector`] that opens a `core.select` span around every
/// selection and a `core.observe` span around every feedback call.
pub struct TimedSelector<S> {
    pub inner: S,
    obs: Recorder,
}

impl<S> TimedSelector<S> {
    pub fn new(inner: S, obs: Recorder) -> Self {
        TimedSelector { inner, obs }
    }
}

impl<S: Selector> Selector for TimedSelector<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        let _span = self.obs.span("core.select");
        self.inner.select(ctx, rng)
    }

    fn observe_round(&mut self, epoch: usize, participants: &[usize], losses: &[f32]) {
        let _span = self.obs.span("core.observe");
        self.inner.observe_round(epoch, participants, losses)
    }

    fn observe_faults(&mut self, epoch: usize, failed: &[usize]) {
        let _span = self.obs.span("core.observe");
        self.inner.observe_faults(epoch, failed)
    }

    fn wants_updates(&self) -> bool {
        self.inner.wants_updates()
    }

    fn observe_update(&mut self, epoch: usize, id: usize, delta: &[f32]) {
        let _span = self.obs.span("core.observe");
        self.inner.observe_update(epoch, id, delta)
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        self.inner.load_state(r)
    }
}

/// Gives the coordinator's re-cluster hook the HACCS selector inside
/// whichever selector type the coordinator owns.
pub trait HaccsInside: Selector + 'static {
    fn haccs(&mut self) -> &mut HaccsSelector;
}

impl HaccsInside for HaccsSelector {
    fn haccs(&mut self) -> &mut HaccsSelector {
        self
    }
}

impl HaccsInside for TimedSelector<HaccsSelector> {
    fn haccs(&mut self) -> &mut HaccsSelector {
        &mut self.inner
    }
}

/// A model factory that counts the models it builds.
pub fn counting_factory(inner: ModelFactory, builds: Arc<AtomicU64>) -> ModelFactory {
    Box::new(move || {
        builds.fetch_add(1, Ordering::Relaxed);
        inner()
    })
}
