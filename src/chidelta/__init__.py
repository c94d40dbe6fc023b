"""Certificates for connected graphs whose chromatic number equals their
maximum degree: a clique of that size, a high odd hole (chordless odd cycle
of length at least five whose vertices all have degree at least the maximum
degree minus one), or identification of the unique exception, the complement
of the 7-cycle."""

from .graph import (
    Graph,
    GraphError,
    complement,
    cycle_power,
    decode_graph6,
    encode_graph6,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    max_degree,
    min_degree,
)
from .coloring import (
    Coloring,
    KempeChain,
    chromatic_number,
    extract_vertex_critical,
    find_k_coloring,
    is_proper,
    kempe_chain,
    kempe_swap,
    shortest_path_in_chain,
)
from .certificate import (
    Certificate,
    CliqueWitness,
    ExceptionalC7Complement,
    HighOddHoleWitness,
    SerializationError,
    certificate_kind,
    certificate_text,
    deserialize_certificate,
    serialize_certificate,
)
from .oracle import (
    Verdict,
    find_clique,
    find_high_odd_hole,
    is_c7_complement,
    odd_holes,
    oracle_witness,
    verify_certificate,
)
from .witness import (
    Adjacent,
    ConflictReport,
    ContractError,
    Hole,
    Inconsistent,
    NeighborhoodSplit,
    PathQuad,
    ProbeOutcome,
    SquaredCycleLabeling,
    degree_deficient_probe,
    find_witness,
    forced_coloring_conflict,
    kempe_adjacency_probe,
    neighborhood_split,
    path_quad,
    sequence_three_coloring,
    split_attachment_check,
    squared_cycle_hole,
    trace_squared_cycle,
)
from .sweep import (
    OrderTally,
    SweepError,
    SweepReport,
    generate_connected_graphs,
    theorem_sweep,
)

__version__ = "0.1.0"
