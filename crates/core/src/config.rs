//! Flow configuration.

use crate::OperonError;
use operon_cluster::ClusterConfig;
use operon_optics::{DelayParams, ElectricalParams, OpticalLib};
use std::fmt::Write as _;

/// The earliest pipeline stage a configuration change invalidates.
///
/// The flow runs clustering → co-design candidate generation (with the
/// crossing index built over the candidate pool) → selection → WDM
/// planning. A warm session that already holds the artifacts of one
/// configuration can answer a routed query for a *different*
/// configuration by re-running only the suffix starting at the first
/// dirty stage; everything upstream is bit-identical by construction
/// (each stage is a pure function of its config slice and the previous
/// stage's output). Variants are ordered by how much of the pipeline
/// they invalidate, so escalation across several `set_config` calls is
/// `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DirtyStage {
    /// Nothing to re-run (only reporting knobs changed).
    Clean,
    /// Re-plan WDM only; clustering, candidates, crossings and the
    /// selection stay valid (`wdm_min_pitch`, `wdm_max_displacement`).
    Wdm,
    /// Re-run selection + WDM over the resident candidate pool
    /// (`selector`, `ilp_wave_size`, `lr_max_iters`,
    /// `lr_converge_ratio`).
    Selection,
    /// Re-generate candidates (and the crossing index over them); the
    /// hyper-net clustering stays valid (optical loss/energy model,
    /// electrical and delay parameters, candidate caps).
    Codesign,
    /// Everything is invalid; equivalent to a cold run (`cluster.*` or
    /// the WDM capacity, which `validate()` couples to
    /// `cluster.capacity`).
    Clustering,
}

impl DirtyStage {
    /// Number of pipeline stages the reuse accounting tracks
    /// (clustering, codesign, crossing, selection, WDM).
    pub const PIPELINE_STAGES: u32 = 5;

    /// How many of the five pipeline stages stay resident when this is
    /// the first dirty stage (the crossing index counts as one stage,
    /// invalidated together with the candidate pool).
    pub fn stages_reused(self) -> u32 {
        match self {
            DirtyStage::Clean => 5,
            DirtyStage::Wdm => 4,
            DirtyStage::Selection => 3,
            DirtyStage::Codesign => 1,
            DirtyStage::Clustering => 0,
        }
    }

    /// Complement of [`DirtyStage::stages_reused`].
    pub fn stages_rerun(self) -> u32 {
        Self::PIPELINE_STAGES - self.stages_reused()
    }
}

/// Which algorithm selects one candidate per hyper net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Selector {
    /// Exact ILP (formulation (3a)–(3d)) with a wall-clock time limit in
    /// seconds; on expiry the best incumbent is used.
    Ilp {
        /// Solver budget, seconds.
        time_limit_secs: u64,
    },
    /// The Lagrangian-relaxation speed-up (Algorithm 1).
    LagrangianRelaxation,
}

/// Configuration of the whole OPERON flow.
///
/// # Examples
///
/// ```
/// use operon::config::{OperonConfig, Selector};
///
/// let mut cfg = OperonConfig::default();
/// cfg.selector = Selector::Ilp { time_limit_secs: 10 };
/// cfg.validate().expect("defaults with ILP selector are valid");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OperonConfig {
    /// Optical device library (α, β, conversion energies, `l_m`, WDM
    /// capacity and pitch bounds).
    pub optical: OpticalLib,
    /// Electrical dynamic-power parameters.
    pub electrical: ElectricalParams,
    /// Interconnect delay parameters (used by [`crate::timing`] and the
    /// optional delay bound below).
    pub delay: DelayParams,
    /// Optional timing constraint: co-design candidates whose worst sink
    /// arrival exceeds this bound (ps) are dropped before selection. The
    /// electrical fallback is always retained so every net stays
    /// routable; a fallback violating the bound is surfaced through
    /// [`crate::flow::FlowResult::delay_violations`].
    pub max_delay_ps: Option<f64>,
    /// Hyper-net construction parameters.
    pub cluster: ClusterConfig,
    /// Candidate-selection algorithm.
    pub selector: Selector,
    /// Derive [`OpticalLib::crossing_sharing`] from the instance
    /// (`capacity / average bits per hyper net`) instead of using the
    /// library's static value. Logical candidate routes share WDM
    /// waveguides, so a transversal waveguide sees one physical crossing
    /// per *waveguide*, not per net; this scales the crossing-loss charge
    /// accordingly.
    pub auto_crossing_sharing: bool,
    /// Maximum baseline topologies per hyper net.
    pub max_topologies: usize,
    /// Maximum co-design candidates kept per hyper net (the electrical
    /// fallback is always additionally kept).
    pub max_candidates: usize,
    /// Label cap per node in the co-design dynamic program.
    pub max_labels: usize,
    /// Branch-and-bound nodes the ILP selector expands concurrently per
    /// wave (see [`crate::formulation::select_ilp`]). The explored
    /// tree depends on this value but never on the thread count, so
    /// results are reproducible across machines at a fixed wave size.
    /// `1` (the default) is the classic sequential best-first search.
    pub ilp_wave_size: usize,
    /// LR iteration cap (the paper uses 10).
    pub lr_max_iters: usize,
    /// LR convergence ratio: stop when both power and violation improve
    /// by less than this fraction between iterations.
    pub lr_converge_ratio: f64,
    /// Power-map resolution (cells per axis) for hotspot reports.
    pub powermap_cells: usize,
}

impl Default for OperonConfig {
    fn default() -> Self {
        Self {
            optical: OpticalLib::paper_defaults(),
            electrical: ElectricalParams::paper_defaults(),
            delay: DelayParams::paper_defaults(),
            max_delay_ps: None,
            cluster: ClusterConfig::default(),
            selector: Selector::LagrangianRelaxation,
            auto_crossing_sharing: true,
            max_topologies: 4,
            max_candidates: 8,
            max_labels: 32,
            ilp_wave_size: 1,
            lr_max_iters: 10,
            lr_converge_ratio: 0.01,
            powermap_cells: 64,
        }
    }
}

impl OperonConfig {
    /// A copy of this configuration with `optical.crossing_sharing`
    /// resolved for an instance with the given hyper-net bit counts.
    ///
    /// With `auto_crossing_sharing` the factor becomes
    /// `capacity / average bits per net`, clamped to
    /// `[1, capacity]`; otherwise the configuration is returned verbatim.
    pub fn resolved_for(&self, bit_counts: impl IntoIterator<Item = usize>) -> OperonConfig {
        let mut out = self.clone();
        if !self.auto_crossing_sharing {
            return out;
        }
        let (mut total, mut n) = (0usize, 0usize);
        for b in bit_counts {
            total += b;
            n += 1;
        }
        if n == 0 || total == 0 {
            return out;
        }
        let avg_bits = total as f64 / n as f64;
        out.optical.crossing_sharing = (self.optical.wdm_capacity as f64 / avg_bits)
            .clamp(1.0, self.optical.wdm_capacity as f64);
        out
    }

    /// This configuration with the WDM capacity set to `k` on *both*
    /// coupled fields: `optical.wdm_capacity` and `cluster.capacity`
    /// (which [`OperonConfig::validate`] requires to match). Use this
    /// instead of assigning the two fields by hand, e.g. when
    /// generating a sweep lattice over the capacity knob.
    pub fn with_wdm_capacity(mut self, k: usize) -> Self {
        self.optical.wdm_capacity = k;
        self.cluster.capacity = k;
        self
    }

    /// Canonical textual encoding of every configuration field.
    ///
    /// Floats are rendered as their IEEE-754 bit patterns so the
    /// encoding (and the [`OperonConfig::fingerprint`] over it) is
    /// exact: two configurations encode equally iff every field is
    /// bitwise equal. Any new `OperonConfig` field must be added here,
    /// or fingerprints will alias across configs that differ in it.
    pub fn canonical_encoding(&self) -> String {
        fn f(out: &mut String, key: &str, v: f64) {
            let _ = write!(out, "{key}={:016x};", v.to_bits());
        }
        fn u(out: &mut String, key: &str, v: u64) {
            let _ = write!(out, "{key}={v};");
        }
        let mut s = String::with_capacity(640);
        let o = &self.optical;
        f(&mut s, "opt.alpha", o.alpha_db_per_cm);
        f(&mut s, "opt.beta", o.beta_db_per_crossing);
        f(&mut s, "opt.p_mod", o.p_mod_pj_per_bit);
        f(&mut s, "opt.p_det", o.p_det_pj_per_bit);
        f(&mut s, "opt.max_loss", o.max_loss_db);
        f(&mut s, "opt.sharing", o.crossing_sharing);
        u(&mut s, "opt.capacity", o.wdm_capacity as u64);
        let _ = write!(s, "opt.pitch={};", o.wdm_min_pitch);
        let _ = write!(s, "opt.displacement={};", o.wdm_max_displacement);
        let e = &self.electrical;
        f(&mut s, "elec.switching", e.switching_factor);
        f(&mut s, "elec.freq", e.freq_ghz);
        f(&mut s, "elec.vdd", e.vdd);
        f(&mut s, "elec.cap", e.cap_pf_per_cm);
        let d = &self.delay;
        f(&mut s, "delay.elec", d.electrical_ps_per_cm);
        f(&mut s, "delay.repeater", d.repeater_threshold_cm);
        f(&mut s, "delay.group_index", d.group_index);
        f(&mut s, "delay.t_mod", d.t_mod_ps);
        f(&mut s, "delay.t_det", d.t_det_ps);
        match self.max_delay_ps {
            Some(bound) => f(&mut s, "max_delay", bound),
            None => s.push_str("max_delay=none;"),
        }
        let c = &self.cluster;
        u(&mut s, "cluster.capacity", c.capacity as u64);
        f(&mut s, "cluster.merge", c.merge_threshold);
        u(&mut s, "cluster.kmeans_iters", c.kmeans_max_iters as u64);
        f(&mut s, "cluster.kmeans_tol", c.kmeans_tolerance);
        u(&mut s, "cluster.seed", c.seed);
        match self.selector {
            Selector::Ilp { time_limit_secs } => {
                let _ = write!(s, "selector=ilp:{time_limit_secs};");
            }
            Selector::LagrangianRelaxation => s.push_str("selector=lr;"),
        }
        u(&mut s, "auto_sharing", self.auto_crossing_sharing as u64);
        u(&mut s, "max_topologies", self.max_topologies as u64);
        u(&mut s, "max_candidates", self.max_candidates as u64);
        u(&mut s, "max_labels", self.max_labels as u64);
        u(&mut s, "ilp_wave", self.ilp_wave_size as u64);
        u(&mut s, "lr_iters", self.lr_max_iters as u64);
        f(&mut s, "lr_converge", self.lr_converge_ratio);
        u(&mut s, "powermap", self.powermap_cells as u64);
        s
    }

    /// FNV-1a (64-bit) hash of [`OperonConfig::canonical_encoding`]:
    /// a stable identity for the exact lattice point a run was routed
    /// under. Run reports and sweep outputs carry it as a
    /// zero-padded hex string.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.canonical_encoding().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    /// The first pipeline stage that must re-run when switching a warm
    /// session from this configuration to `next`.
    ///
    /// Field comparisons are bitwise (float bit patterns), matching
    /// [`OperonConfig::canonical_encoding`]: a `Clean` verdict
    /// guarantees identical encodings up to reporting knobs.
    pub fn first_dirty_stage(&self, next: &OperonConfig) -> DirtyStage {
        fn ne(a: f64, b: f64) -> bool {
            a.to_bits() != b.to_bits()
        }
        let (a, b) = (self, next);
        let (ca, cb) = (&a.cluster, &b.cluster);
        if ca.capacity != cb.capacity
            || ne(ca.merge_threshold, cb.merge_threshold)
            || ca.kmeans_max_iters != cb.kmeans_max_iters
            || ne(ca.kmeans_tolerance, cb.kmeans_tolerance)
            || ca.seed != cb.seed
            || a.optical.wdm_capacity != b.optical.wdm_capacity
        {
            return DirtyStage::Clustering;
        }
        let (oa, ob) = (&a.optical, &b.optical);
        let (ea, eb) = (&a.electrical, &b.electrical);
        let (da, db) = (&a.delay, &b.delay);
        if ne(oa.alpha_db_per_cm, ob.alpha_db_per_cm)
            || ne(oa.beta_db_per_crossing, ob.beta_db_per_crossing)
            || ne(oa.p_mod_pj_per_bit, ob.p_mod_pj_per_bit)
            || ne(oa.p_det_pj_per_bit, ob.p_det_pj_per_bit)
            || ne(oa.max_loss_db, ob.max_loss_db)
            || ne(oa.crossing_sharing, ob.crossing_sharing)
            || ne(ea.switching_factor, eb.switching_factor)
            || ne(ea.freq_ghz, eb.freq_ghz)
            || ne(ea.vdd, eb.vdd)
            || ne(ea.cap_pf_per_cm, eb.cap_pf_per_cm)
            || ne(da.electrical_ps_per_cm, db.electrical_ps_per_cm)
            || ne(da.repeater_threshold_cm, db.repeater_threshold_cm)
            || ne(da.group_index, db.group_index)
            || ne(da.t_mod_ps, db.t_mod_ps)
            || ne(da.t_det_ps, db.t_det_ps)
            || a.max_delay_ps.map(f64::to_bits) != b.max_delay_ps.map(f64::to_bits)
            || a.auto_crossing_sharing != b.auto_crossing_sharing
            || a.max_topologies != b.max_topologies
            || a.max_candidates != b.max_candidates
            || a.max_labels != b.max_labels
        {
            return DirtyStage::Codesign;
        }
        if a.selector != b.selector
            || a.ilp_wave_size != b.ilp_wave_size
            || a.lr_max_iters != b.lr_max_iters
            || ne(a.lr_converge_ratio, b.lr_converge_ratio)
        {
            return DirtyStage::Selection;
        }
        if oa.wdm_min_pitch != ob.wdm_min_pitch
            || oa.wdm_max_displacement != ob.wdm_max_displacement
        {
            return DirtyStage::Wdm;
        }
        DirtyStage::Clean
    }

    /// Canonical encoding of the clustering + co-design prefix of this
    /// configuration: every selection-, WDM- and reporting-tier knob is
    /// replaced by its default before encoding. Two configurations have
    /// equal prefix keys iff a warm session can switch between them
    /// re-running selection (or less) only, i.e. iff
    /// [`OperonConfig::first_dirty_stage`] between them is at most
    /// [`DirtyStage::Selection`]. The sweep driver groups lattice
    /// points by this key.
    pub fn shared_prefix_key(&self) -> String {
        let defaults = OperonConfig::default();
        let mut prefix = self.clone();
        prefix.selector = defaults.selector;
        prefix.ilp_wave_size = defaults.ilp_wave_size;
        prefix.lr_max_iters = defaults.lr_max_iters;
        prefix.lr_converge_ratio = defaults.lr_converge_ratio;
        prefix.optical.wdm_min_pitch = defaults.optical.wdm_min_pitch;
        prefix.optical.wdm_max_displacement = defaults.optical.wdm_max_displacement;
        prefix.powermap_cells = defaults.powermap_cells;
        prefix.canonical_encoding()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OperonError::InvalidConfig`] naming the first violated
    /// invariant, including those of the nested optical and electrical
    /// parameter sets.
    pub fn validate(&self) -> Result<(), OperonError> {
        self.optical
            .validate()
            .map_err(OperonError::InvalidConfig)?;
        self.electrical
            .validate()
            .map_err(OperonError::InvalidConfig)?;
        self.delay.validate().map_err(OperonError::InvalidConfig)?;
        if let Some(bound) = self.max_delay_ps {
            if bound.is_nan() || bound <= 0.0 {
                return Err(OperonError::InvalidConfig(format!(
                    "max_delay_ps must be positive, got {bound}"
                )));
            }
        }
        if self.cluster.capacity == 0 {
            return Err(OperonError::InvalidConfig(
                "cluster capacity must be positive".to_owned(),
            ));
        }
        if self.cluster.capacity != self.optical.wdm_capacity {
            return Err(OperonError::InvalidConfig(format!(
                "cluster capacity ({}) must match WDM capacity ({})",
                self.cluster.capacity, self.optical.wdm_capacity
            )));
        }
        if self.max_topologies == 0 || self.max_candidates == 0 || self.max_labels == 0 {
            return Err(OperonError::InvalidConfig(
                "topology/candidate/label caps must be positive".to_owned(),
            ));
        }
        if self.ilp_wave_size == 0 {
            return Err(OperonError::InvalidConfig(
                "ilp_wave_size must be positive".to_owned(),
            ));
        }
        if self.lr_max_iters == 0 {
            return Err(OperonError::InvalidConfig(
                "lr_max_iters must be positive".to_owned(),
            ));
        }
        if !(0.0..1.0).contains(&self.lr_converge_ratio) {
            return Err(OperonError::InvalidConfig(format!(
                "lr_converge_ratio must be in [0, 1), got {}",
                self.lr_converge_ratio
            )));
        }
        if self.powermap_cells == 0 {
            return Err(OperonError::InvalidConfig(
                "powermap_cells must be positive".to_owned(),
            ));
        }
        if let Selector::Ilp { time_limit_secs } = self.selector {
            if time_limit_secs == 0 {
                return Err(OperonError::InvalidConfig(
                    "ILP time limit must be positive".to_owned(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(OperonConfig::default().validate().is_ok());
    }

    #[test]
    fn mismatched_capacities_rejected() {
        let mut cfg = OperonConfig::default();
        cfg.cluster.capacity = 16; // optical.wdm_capacity stays 32
        assert!(matches!(
            cfg.validate(),
            Err(OperonError::InvalidConfig(msg)) if msg.contains("match")
        ));
    }

    #[test]
    fn nested_validation_propagates() {
        let mut cfg = OperonConfig::default();
        cfg.optical.alpha_db_per_cm = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = OperonConfig::default();
        cfg.electrical.vdd = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_caps_rejected() {
        for field in 0..4 {
            let mut cfg = OperonConfig::default();
            match field {
                0 => cfg.max_topologies = 0,
                1 => cfg.max_candidates = 0,
                2 => cfg.max_labels = 0,
                _ => cfg.lr_max_iters = 0,
            }
            assert!(cfg.validate().is_err(), "field {field} not validated");
        }
    }

    #[test]
    fn bad_converge_ratio_rejected() {
        let cfg = OperonConfig {
            lr_converge_ratio: 1.0,
            ..OperonConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_ilp_wave_size_rejected() {
        let cfg = OperonConfig {
            ilp_wave_size: 0,
            ..OperonConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(OperonError::InvalidConfig(msg)) if msg.contains("ilp_wave_size")
        ));
    }

    #[test]
    fn zero_ilp_time_limit_rejected() {
        let cfg = OperonConfig {
            selector: Selector::Ilp { time_limit_secs: 0 },
            ..OperonConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_wdm_capacity_updates_both_coupled_fields() {
        let cfg = OperonConfig::default().with_wdm_capacity(16);
        assert_eq!(cfg.optical.wdm_capacity, 16);
        assert_eq!(cfg.cluster.capacity, 16);
        cfg.validate().expect("coupled update keeps config valid");
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let base = OperonConfig::default();
        assert_eq!(base.fingerprint(), OperonConfig::default().fingerprint());

        // One mutation per tier; every one must move the fingerprint.
        let mut variants = vec![
            base.clone().with_wdm_capacity(16),
            OperonConfig {
                powermap_cells: 32,
                ..base.clone()
            },
            OperonConfig {
                lr_max_iters: 4,
                ..base.clone()
            },
            OperonConfig {
                selector: Selector::Ilp { time_limit_secs: 3 },
                ..base.clone()
            },
            OperonConfig {
                max_delay_ps: Some(900.0),
                ..base.clone()
            },
        ];
        let mut loss = base.clone();
        loss.optical.max_loss_db *= 0.5;
        variants.push(loss);
        let mut pitch = base.clone();
        pitch.optical.wdm_min_pitch += 1;
        variants.push(pitch);

        let mut prints = vec![base.fingerprint()];
        for v in &variants {
            prints.push(v.fingerprint());
        }
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), variants.len() + 1, "fingerprint collision");
    }

    #[test]
    fn dirty_stage_classification_table() {
        let base = OperonConfig::default();
        assert_eq!(base.first_dirty_stage(&base), DirtyStage::Clean);
        assert_eq!(
            base.first_dirty_stage(&OperonConfig {
                powermap_cells: 16,
                ..base.clone()
            }),
            DirtyStage::Clean,
            "reporting knobs invalidate nothing"
        );

        let mut wdm = base.clone();
        wdm.optical.wdm_min_pitch += 2;
        assert_eq!(base.first_dirty_stage(&wdm), DirtyStage::Wdm);

        for sel in [
            OperonConfig {
                lr_max_iters: 4,
                ..base.clone()
            },
            OperonConfig {
                lr_converge_ratio: 0.1,
                ..base.clone()
            },
            OperonConfig {
                ilp_wave_size: 4,
                ..base.clone()
            },
            OperonConfig {
                selector: Selector::Ilp { time_limit_secs: 5 },
                ..base.clone()
            },
        ] {
            assert_eq!(base.first_dirty_stage(&sel), DirtyStage::Selection);
        }

        let mut codesign = base.clone();
        codesign.optical.max_loss_db *= 0.8;
        assert_eq!(base.first_dirty_stage(&codesign), DirtyStage::Codesign);
        let mut elec = base.clone();
        elec.electrical.vdd *= 1.1;
        assert_eq!(base.first_dirty_stage(&elec), DirtyStage::Codesign);
        assert_eq!(
            base.first_dirty_stage(&OperonConfig {
                max_candidates: 4,
                ..base.clone()
            }),
            DirtyStage::Codesign
        );

        assert_eq!(
            base.first_dirty_stage(&base.clone().with_wdm_capacity(16)),
            DirtyStage::Clustering
        );
        let mut merge = base.clone();
        merge.cluster.merge_threshold *= 2.0;
        assert_eq!(base.first_dirty_stage(&merge), DirtyStage::Clustering);

        // The earliest dirty stage wins when several tiers change.
        let mut both = base.clone();
        both.lr_max_iters = 4;
        both.optical.max_loss_db *= 0.8;
        assert_eq!(base.first_dirty_stage(&both), DirtyStage::Codesign);
    }

    #[test]
    fn dirty_stage_ordering_reflects_pipeline_depth() {
        assert!(DirtyStage::Clean < DirtyStage::Wdm);
        assert!(DirtyStage::Wdm < DirtyStage::Selection);
        assert!(DirtyStage::Selection < DirtyStage::Codesign);
        assert!(DirtyStage::Codesign < DirtyStage::Clustering);
        assert_eq!(DirtyStage::Clean.stages_reused(), 5);
        assert_eq!(DirtyStage::Clustering.stages_rerun(), 5);
        for stage in [
            DirtyStage::Clean,
            DirtyStage::Wdm,
            DirtyStage::Selection,
            DirtyStage::Codesign,
            DirtyStage::Clustering,
        ] {
            assert_eq!(
                stage.stages_reused() + stage.stages_rerun(),
                DirtyStage::PIPELINE_STAGES
            );
        }
    }

    #[test]
    fn shared_prefix_key_matches_dirty_classification() {
        let base = OperonConfig::default();
        let mut variants = vec![
            (base.clone(), true),
            (
                OperonConfig {
                    lr_max_iters: 4,
                    ..base.clone()
                },
                true,
            ),
            (
                OperonConfig {
                    selector: Selector::Ilp { time_limit_secs: 2 },
                    ilp_wave_size: 4,
                    ..base.clone()
                },
                true,
            ),
            (
                OperonConfig {
                    powermap_cells: 8,
                    ..base.clone()
                },
                true,
            ),
            (base.clone().with_wdm_capacity(16), false),
        ];
        let mut pitch = base.clone();
        pitch.optical.wdm_min_pitch += 4;
        variants.push((pitch, true));
        let mut loss = base.clone();
        loss.optical.max_loss_db *= 0.8;
        variants.push((loss, false));

        for (cfg, shares) in &variants {
            let key_equal = cfg.shared_prefix_key() == base.shared_prefix_key();
            let stage = base.first_dirty_stage(cfg);
            assert_eq!(
                key_equal, *shares,
                "prefix-key sharing mismatch for stage {stage:?}"
            );
            assert_eq!(
                key_equal,
                stage <= DirtyStage::Selection,
                "prefix key must agree with first_dirty_stage"
            );
        }
    }
}
