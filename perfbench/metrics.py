"""Every metric the benchmark reports, with its unit and what it should move.

``END_TO_END`` metrics come from untraced runs (``--trace 0``); ``PER_LAYER``
metrics come from traced runs (``--trace 1``). Each per-layer entry names
its layer and the end-to-end metric and workload it should move, so that a
change to one layer can be checked against the prediction written here.
``BENCHMARK.json`` lists the same names and units.
"""

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str = ""
    moves: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower", moves="time to finish the workload's input set, set-up excluded"),
    Metric("slowest_group_s", "s", "lower", moves="the longest single group: the tail a user waits on"),
    Metric("setup_s", "s", "lower", moves="parsing, direct_product and consistency checks"),
    Metric("peak_rss_mb", "MB", "lower", moves="peak resident memory; a new cache shows here"),
)

_C = "count"

PER_LAYER = (
    # pcgroup: collection
    Metric("pcgroup.multiply.calls", _C, "lower", "pcgroup collection", "wall_s, slowest_group_s on ladder"),
    Metric("pcgroup.inverse.calls", _C, "lower", "pcgroup collection", "wall_s, slowest_group_s on ladder"),
    Metric("pcgroup.power.calls", _C, "lower", "pcgroup collection", "wall_s, slowest_group_s on ladder"),
    Metric("pcgroup.sift.calls", _C, "lower", "pcgroup collection", "wall_s, slowest_group_s on ladder"),
    # pcgroup: subgroup algebra
    Metric("pcgroup.subgroup_from_gens.calls", _C, "lower", "pcgroup subgroups", "wall_s on ladder"),
    Metric("pcgroup.subgroup_from_gens.self_s", "s", "lower", "pcgroup subgroups", "wall_s on ladder"),
    Metric("pcgroup.Subgroup.join.calls", _C, "lower", "pcgroup subgroups", "wall_s on ladder"),
    Metric("pcgroup.comm_subgroup.calls", _C, "lower", "pcgroup subgroups", "wall_s on ladder"),
    Metric("pcgroup.comm_subgroup.self_s", "s", "lower", "pcgroup subgroups", "wall_s on ladder"),
    Metric("pcgroup.comm_subgroup.distinct_ratio", "ratio", "higher", "pcgroup subgroups", "wall_s on ladder"),
    # pcgroup: element enumeration
    Metric("pcgroup.Subgroup.meet.calls", _C, "lower", "pcgroup enumeration", "wall_s on verify"),
    Metric("pcgroup.Subgroup.meet.self_s", "s", "lower", "pcgroup enumeration", "wall_s on verify"),
    Metric("pcgroup.centralizer_mod.calls", _C, "lower", "pcgroup enumeration", "wall_s on verify"),
    Metric("pcgroup.centralizer_mod.self_s", "s", "lower", "pcgroup enumeration", "wall_s on verify"),
    Metric("pcgroup.enumerated_elements", _C, "lower", "pcgroup enumeration", "wall_s on verify"),
    # series
    Metric("series.Filter.boundary_at.calls", _C, "lower", "series", "wall_s on ladder (census: minor)"),
    Metric("series.Filter.boundary_at.self_s", "s", "lower", "series", "wall_s on ladder (census: minor)"),
    Metric("series.Filter.boundary_at.distinct_ratio", "ratio", "higher", "series", "wall_s on ladder (census: minor)"),
    Metric("series.Layering.boundary_at.calls", _C, "lower", "series", "wall_s on verify"),
    Metric("series.Layering.boundary_at.self_s", "s", "lower", "series", "wall_s on verify"),
    Metric("series.Layering.boundary_at.distinct_ratio", "ratio", "higher", "series", "wall_s on verify"),
    # a correctness post-check inside insert_refinement: its count must not fall
    Metric("series.verify_filter.calls", _C, "higher", "series", "wall_s on ladder"),
    Metric("series.verify_filter.self_s", "s", "lower", "series", "wall_s on ladder"),
    Metric("series.lower_central.self_s", "s", "lower", "series", "wall_s on verify"),
    Metric("series.upper_central.self_s", "s", "lower", "series", "wall_s on verify"),
    Metric("series.exponent_p_lcs.self_s", "s", "lower", "series", "wall_s on ladder"),
    # lie
    Metric("lie.graded_lie_ring.calls", _C, "lower", "lie", "wall_s on ladder"),
    Metric("lie.graded_lie_ring.self_s", "s", "lower", "lie", "wall_s on ladder"),
    Metric("lie.graded_module.self_s", "s", "lower", "lie", "wall_s on verify"),
    Metric("lie.check_module_law_integral.self_s", "s", "lower", "lie", "wall_s on verify"),
    Metric("lie.CosetBasis.coords.calls", _C, "lower", "lie", "wall_s on ladder"),
    # scalars
    Metric("scalars.all_rings.calls", _C, "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.all_rings.self_s", "s", "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.characteristic_subspaces.calls", _C, "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.characteristic_subspaces.self_s", "s", "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.radical.calls", _C, "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.radical.self_s", "s", "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.split_idempotents.calls", _C, "lower", "scalars", "wall_s, slowest_group_s on census"),
    Metric("scalars.split_idempotents.self_s", "s", "lower", "scalars", "wall_s, slowest_group_s on census"),
    # linalg
    Metric("linalg.rref.calls", _C, "lower", "linalg", "wall_s on census"),
    Metric("linalg.rref.self_s", "s", "lower", "linalg", "wall_s on census"),
    Metric("linalg.rref.cells", _C, "lower", "linalg", "wall_s on census"),
    Metric("linalg.nullspace.calls", _C, "lower", "linalg", "wall_s on census"),
    Metric("linalg.in_row_space.calls", _C, "lower", "linalg", "wall_s on census"),
    # oracle
    Metric("oracle.cayley_from_pc.self_s", "s", "lower", "oracle", "wall_s on verify"),
    Metric("oracle.check_equiv.self_s", "s", "lower", "oracle", "wall_s on verify"),
    # autfilter
    Metric("autfilter.central_automorphisms.self_s", "s", "lower", "autfilter", "wall_s on verify"),
    Metric("autfilter.delta_layer_dims.self_s", "s", "lower", "autfilter", "wall_s on verify"),
    # refine
    Metric("refine.refine_to_fixpoint.calls", _C, "lower", "refine", "wall_s on ladder and census"),
    Metric("refine.refine_to_fixpoint.self_s", "s", "lower", "refine", "wall_s on ladder and census"),
    Metric("refine.insert_refinement.calls", _C, "lower", "refine", "wall_s on ladder and census"),
    Metric("refine.insert_refinement.self_s", "s", "lower", "refine", "wall_s on ladder and census"),
    Metric("refine.lift_subspace.calls", _C, "lower", "refine", "wall_s on ladder and census"),
    Metric("refine.accept_ratio", "ratio", "higher", "refine", "wall_s on ladder and census"),
    # census
    Metric("census.analyze_file.calls", _C, "lower", "census", "wall_s on census"),
    Metric("census.analyze_file.self_s", "s", "lower", "census", "wall_s on census"),
    Metric("census.refines_per_group", _C, "lower", "census", "wall_s on census"),
    # the cost of the benchmark's own wrappers
    Metric("trace.overhead_ratio", "ratio", "lower", "trace", "none: traced wall_s over untraced wall_s"),
)
