"""Weak saturation of uniform hypergraphs.

Bootstrap closures with replayable certificates, template saturation, the
explicit gadget constructions with per-instance bound checks, greedy covering
designs, and an exact small-instance solver, all tied together by a CLI
(`wsat` entry point).
"""

from .constructions import (
    BoundCheck,
    ConeSpec,
    MainResult,
    MainSpec,
    PercolateSpec,
    SpartiteSpec,
    check_cone,
    check_percolate,
    check_spartite,
    clique_extremal,
    clique_extremal_bound,
    cone_bound,
    cone_gadget,
    cone_phase,
    main_clusters,
    main_construction,
    padded_example,
    padding_bound,
    percolate_bound,
    percolate_gadget,
    percolate_phase,
    s1_construction,
    spartite_gadget,
    spartite_phase,
)
from .designs import (
    CoverDesign,
    cover_from_text,
    cover_to_text,
    greedy_cover,
    rodl_bound,
    verify_cover,
)
from .hypergraph import (
    Edge,
    FormatError,
    Hypergraph,
    Pattern,
    complete_graph,
    edge_rank,
    edge_universe,
    edge_unrank,
    graph_from_text,
    graph_of_mask,
    graph_to_text,
    missing_edges,
)
from .percolation import (
    CertificateCheck,
    ClosureResult,
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    Witness,
    WitnessIndex,
    certificate_from_text,
    certificate_to_text,
    clique_wsat_value,
    closure,
    creates_new_copy,
    is_weakly_saturated,
    verify_certificate,
    witness_index,
)
from .solver import (
    RatioRow,
    WsatResult,
    ratio_table,
    wsat_exact,
    wsat_upper,
    wsat_upper_witness,
)
from .templates import (
    creates_template_copy,
    make_pattern,
    sparseness,
    sparseness_witness,
    template,
    template_cert_to_pattern_cert,
    template_closure,
    template_mappings,
    template_minus,
)

__version__ = "0.1.0"
