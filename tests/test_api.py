import lacasse
import lacasse.exact

# The names the README's Library section and the CLI need; anything more
# is surface to maintain, so the list grows only on purpose.
PUBLIC_NAMES = [
    "ALL_ROUTES",
    "ConsistencyError",
    "DEFAULT_BRUTE_CUTOFF",
    "DomainError",
    "IdentityFailureError",
    "RouteDisagreementError",
    "VerificationReport",
    "alpha_closed",
    "beta_closed",
    "egf_coeff",
    "geom_power",
    "ramanujan_q",
    "s_d_closed",
    "telescoping_difference",
    "tree_series",
    "verify_lacasse",
    "verify_range",
    "xi",
    "xi2",
]


def test_public_api_is_pinned():
    assert sorted(lacasse.__all__) == PUBLIC_NAMES
    for name in lacasse.__all__:
        assert hasattr(lacasse, name)


def test_exact_exports_only_domain_error():
    assert lacasse.exact.__all__ == ["DomainError"]
