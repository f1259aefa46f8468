"""The package's public surface, written out so that any change shows as a diff."""

import hyperlag

PUBLIC_NAMES = [
    "CLAIMS",
    "ClaimSpec",
    "ParseError",
    "RSet",
    "RUniformHypergraph",
    "ResourceLimitError",
    "SolveReport",
    "SolverConfig",
    "VerificationReport",
    "Witness",
    "colex_graph",
    "colex_rank",
    "colex_unrank",
    "complete_graph",
    "complete_lagrangian",
    "complete_lagrangian_exact",
    "enumerate_left_compressed",
    "evaluate",
    "evaluate_exact",
    "format_hypergraph",
    "hypergraph",
    "is_left_compressed",
    "kkt_residual",
    "lc_max_clique_order",
    "left_compress",
    "link",
    "max_clique_order",
    "maximal_cliques",
    "motzkin_straus_value",
    "parse_hypergraph",
    "report_to_csv",
    "report_to_json",
    "report_to_text",
    "rset",
    "run_claim",
    "solve",
]


def test_public_names():
    assert sorted(hyperlag.__all__) == PUBLIC_NAMES
