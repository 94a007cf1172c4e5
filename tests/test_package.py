import types

import echtoric


def test_all_lists_no_submodule():
    assert echtoric.__all__ == sorted(set(echtoric.__all__))
    for name in echtoric.__all__:
        assert not isinstance(getattr(echtoric, name), types.ModuleType), name
    for name in ("blowups", "capacities", "weights", "latticepaths"):
        assert name not in echtoric.__all__
    assert {"convex_caps", "convex_horizon", "ToricDomain",
            "DomainError"} <= set(echtoric.__all__)
