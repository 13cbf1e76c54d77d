//! Build-time kernel compilation for the flat-arena engine.
//!
//! Every marginal query used to re-decide, per evaluation, facts that were
//! already known when the engine was constructed: is the candidate's class
//! uniform-β or mixed? Are saturation aggregates enabled? Is β degenerate
//! (0 or 1, including the `GlobalNo` ablation that treats every β as 1)?
//! This module hoists those decisions into a **classification pass** run by
//! `IncrementalRevenue::with_parts`: each (user, class) group is assigned one
//! [`KernelId`] out of a small closed set, stored as a byte in the engine's
//! SoA layout next to the group's packed parameters (`agg_start`, `agg_hi`,
//! candidate count). The hot path then dispatches through one flat `match`
//! on the kernel byte — no per-query profile, knob, or exemption branching.
//!
//! # Variants
//!
//! | kernel | class shape | marginal path |
//! |---|---|---|
//! | [`KernelId::MixedWalk`] | mixed β | exact slab walk (per-entry β rows) |
//! | [`KernelId::UniformWalk`] | uniform β, gated off | exact slab walk |
//! | [`KernelId::UniformAgg`] | uniform β ∈ (0, 1) | aggregate fold, β-root table row |
//! | [`KernelId::UnitAgg`] | β = 1 (or `GlobalNo`) | aggregate fold, constant factor `1 − q` |
//! | [`KernelId::ZeroAgg`] | β = 0 | aggregate fold, zero factor |
//!
//! The degenerate kernels compute bit-identically to [`KernelId::UniformAgg`]
//! (their β-root table rows hold exactly 1.0 / 0.0), they just skip the table
//! reads. Exempt-capacity checks are compiled the same way: when the instance
//! carries exemptions, a per-candidate exempt bit is packed at construction so
//! the capacity check on the hot path is two flat loads instead of a binary
//! search over the item's exempt-user set.
//!
//! # The `Auto` depth gate
//!
//! [`AggregateMode::Auto`] (the default) engages the aggregate kernels only
//! when they are expected to pay for their maintenance: each insertion into an
//! aggregate group updates a `2 · (T − t)` block *in addition to* the slab,
//! which is pure overhead when groups stay shallow. PR 5 measured ~0.97× on
//! warm-replan residuals (horizons shrink towards 1, groups hold at most a
//! couple of entries) against ~1.03–1.06× on full-horizon instances. The
//! crossover is gated per group at compile time on the two depth signals known
//! up front: the residual horizon and the group's candidate count (an upper
//! bound driver for how many entries the group can accumulate). Because a
//! replan constructs a fresh engine per residual (`warm_start` →
//! `with_parts`), the gate is re-derived on every `residual_advance` as the
//! horizon shrinks — exactly the "walk when shallow" fallback the 0.97× row
//! was missing. [`AggregateMode::On`] forces the aggregate kernels wherever a
//! class shape permits them; [`AggregateMode::Off`] compiles every group to a
//! walk kernel (the walk-only reference the kernel-parity suites plan
//! against). All modes select among bit-compatible paths (parity to 1e-9
//! is asserted by those suites), so the mode is never a planner choice: the
//! planner runs `Auto`.

use crate::instance::BetaProfile;

/// Aggregate-engagement mode of the flat engine's kernel compiler. The
/// planner always runs the default [`AggregateMode::Auto`]; `On` and `Off`
/// exist for the engine's own tests and the test-only walk reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregateMode {
    /// Depth-gated: aggregate kernels engage only for groups expected to grow
    /// deep enough to amortise block maintenance (see the module docs).
    #[default]
    Auto,
    /// Aggregate kernels wherever the class shape permits them.
    On,
    /// Walk kernels everywhere.
    Off,
}

impl AggregateMode {
    /// Whether this mode can engage aggregate kernels at all.
    #[inline]
    pub fn allows_aggregates(self) -> bool {
        !matches!(self, AggregateMode::Off)
    }
}

/// Compiled per-group marginal kernel (stored as one byte per group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelId {
    /// Mixed-β class: exact slab walk with per-entry β-root rows.
    MixedWalk = 0,
    /// Uniform-β class compiled to the walk (aggregates off or depth-gated).
    UniformWalk = 1,
    /// Uniform β ∈ (0, 1): aggregate fold over the group's `pros`/`wsum`
    /// block, β-root factors from the probe candidate's table row.
    UniformAgg = 2,
    /// β = 1 (also the `GlobalNo` ablation): aggregate fold with the constant
    /// factor `1 − q` — no β-root table reads.
    UnitAgg = 3,
    /// β = 0: aggregate fold with a zero factor — later-step losses collapse
    /// to a plain sum of the `wsum` suffix.
    ZeroAgg = 4,
}

impl KernelId {
    /// Whether the kernel answers marginals from the group's aggregate block
    /// (and therefore requires the block to be maintained on insertion).
    #[inline]
    pub fn uses_aggregates(self) -> bool {
        matches!(
            self,
            KernelId::UniformAgg | KernelId::UnitAgg | KernelId::ZeroAgg
        )
    }

    /// The kernel byte as stored in the engine's per-group SoA slot.
    #[inline]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a kernel byte written by [`KernelId::as_u8`].
    #[inline]
    pub(crate) fn from_u8(byte: u8) -> KernelId {
        match byte {
            1 => KernelId::UniformWalk,
            2 => KernelId::UniformAgg,
            3 => KernelId::UnitAgg,
            4 => KernelId::ZeroAgg,
            _ => KernelId::MixedWalk,
        }
    }
}

/// Class shape relevant to kernel selection, derived once per class from its
/// [`BetaProfile`] (bit-exact β comparison at `Instance` build time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum ClassShape {
    /// Items of the class carry different βs.
    Mixed = 0,
    /// One shared β strictly between 0 and 1.
    Uniform = 1,
    /// Shared β = 1, or the engine ignores saturation (`GlobalNo`).
    Unit = 2,
    /// Shared β = 0.
    Zero = 3,
}

impl ClassShape {
    /// Classifies one class under the engine's saturation setting.
    pub(crate) fn of(profile: BetaProfile, ignore_saturation: bool) -> ClassShape {
        if ignore_saturation {
            return ClassShape::Unit;
        }
        match profile {
            BetaProfile::Mixed => ClassShape::Mixed,
            BetaProfile::Uniform(b) if b >= 1.0 => ClassShape::Unit,
            BetaProfile::Uniform(b) if b <= 0.0 => ClassShape::Zero,
            BetaProfile::Uniform(_) => ClassShape::Uniform,
        }
    }

    /// The shape byte as stored in the engine's per-group SoA slot.
    #[inline]
    pub(crate) fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a shape byte written by [`ClassShape::as_u8`].
    #[inline]
    pub(crate) fn from_u8(byte: u8) -> ClassShape {
        match byte {
            1 => ClassShape::Uniform,
            2 => ClassShape::Unit,
            3 => ClassShape::Zero,
            _ => ClassShape::Mixed,
        }
    }

    /// The aggregate kernel this shape compiles to when aggregates engage.
    #[inline]
    fn agg_kernel(self) -> KernelId {
        match self {
            ClassShape::Unit => KernelId::UnitAgg,
            ClassShape::Zero => KernelId::ZeroAgg,
            _ => KernelId::UniformAgg,
        }
    }
}

/// Minimum residual horizon for the `Auto` gate to engage aggregate kernels.
/// Below this, block maintenance can no longer amortise over the loss folds
/// it saves (the PR 5 warm-replan rows measured the crossover ~0.97× at
/// shallow horizons).
pub const AUTO_AGG_MIN_HORIZON: u32 = 4;

/// Minimum candidates in a group for the `Auto` gate: a group reachable by a
/// single candidate holds at most one entry per time step, so the walk never
/// scans more entries than the aggregate fold would touch.
pub const AUTO_AGG_MIN_CANDS: u32 = 2;

/// Selects the effective kernel of one group from its class shape, the
/// engine's aggregate mode, and the depth signals of the `Auto` gate.
pub(crate) fn effective_kernel(
    shape: ClassShape,
    mode: AggregateMode,
    horizon: u32,
    group_cands: u32,
) -> KernelId {
    if shape == ClassShape::Mixed {
        return KernelId::MixedWalk;
    }
    match mode {
        AggregateMode::Off => KernelId::UniformWalk,
        AggregateMode::On => shape.agg_kernel(),
        AggregateMode::Auto => {
            if horizon >= AUTO_AGG_MIN_HORIZON && group_cands >= AUTO_AGG_MIN_CANDS {
                shape.agg_kernel()
            } else {
                KernelId::UniformWalk
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classification() {
        assert_eq!(ClassShape::of(BetaProfile::Mixed, false), ClassShape::Mixed);
        assert_eq!(
            ClassShape::of(BetaProfile::Uniform(0.5), false),
            ClassShape::Uniform
        );
        assert_eq!(
            ClassShape::of(BetaProfile::Uniform(1.0), false),
            ClassShape::Unit
        );
        assert_eq!(
            ClassShape::of(BetaProfile::Uniform(0.0), false),
            ClassShape::Zero
        );
        // GlobalNo treats every class as β = 1, even mixed ones.
        assert_eq!(ClassShape::of(BetaProfile::Mixed, true), ClassShape::Unit);
    }

    #[test]
    fn shape_and_kernel_bytes_round_trip() {
        for shape in [
            ClassShape::Mixed,
            ClassShape::Uniform,
            ClassShape::Unit,
            ClassShape::Zero,
        ] {
            assert_eq!(ClassShape::from_u8(shape.as_u8()), shape);
        }
        for kernel in [
            KernelId::MixedWalk,
            KernelId::UniformWalk,
            KernelId::UniformAgg,
            KernelId::UnitAgg,
            KernelId::ZeroAgg,
        ] {
            assert_eq!(KernelId::from_u8(kernel.as_u8()), kernel);
        }
    }

    #[test]
    fn mixed_classes_never_compile_to_aggregates() {
        for mode in [AggregateMode::Auto, AggregateMode::On, AggregateMode::Off] {
            assert_eq!(
                effective_kernel(ClassShape::Mixed, mode, 7, 10),
                KernelId::MixedWalk
            );
        }
    }

    #[test]
    fn auto_gate_walks_shallow_groups() {
        // Deep enough on both axes: aggregate kernel.
        assert_eq!(
            effective_kernel(ClassShape::Uniform, AggregateMode::Auto, 7, 4),
            KernelId::UniformAgg
        );
        // Shallow horizon (warm-replan tail): walk.
        assert_eq!(
            effective_kernel(
                ClassShape::Uniform,
                AggregateMode::Auto,
                AUTO_AGG_MIN_HORIZON - 1,
                4
            ),
            KernelId::UniformWalk
        );
        // Single-candidate group: walk.
        assert_eq!(
            effective_kernel(ClassShape::Uniform, AggregateMode::Auto, 7, 1),
            KernelId::UniformWalk
        );
        // `On` overrides the gate on both axes.
        assert_eq!(
            effective_kernel(ClassShape::Uniform, AggregateMode::On, 1, 1),
            KernelId::UniformAgg
        );
        // `Off` compiles to the walk even for deep groups.
        assert_eq!(
            effective_kernel(ClassShape::Zero, AggregateMode::Off, 7, 10),
            KernelId::UniformWalk
        );
    }

    #[test]
    fn degenerate_shapes_compile_to_degenerate_kernels() {
        assert_eq!(
            effective_kernel(ClassShape::Unit, AggregateMode::On, 7, 4),
            KernelId::UnitAgg
        );
        assert_eq!(
            effective_kernel(ClassShape::Zero, AggregateMode::Auto, 7, 4),
            KernelId::ZeroAgg
        );
        assert!(KernelId::UnitAgg.uses_aggregates());
        assert!(KernelId::ZeroAgg.uses_aggregates());
        assert!(!KernelId::UniformWalk.uses_aggregates());
    }
}
