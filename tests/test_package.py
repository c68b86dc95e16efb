import quiverperm


def test_public_names_resolve():
    # a name left in __all__ after its definition is gone breaks star imports
    assert [name for name in quiverperm.__all__
            if not hasattr(quiverperm, name)] == []
    namespace = {}
    exec("from quiverperm import *", namespace)
    assert set(quiverperm.__all__) <= set(namespace)
