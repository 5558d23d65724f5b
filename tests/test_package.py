import minimaxkern


def test_every_export_resolves():
    # a name left in __all__ after its object is deleted fails here
    missing = [name for name in minimaxkern.__all__
               if not hasattr(minimaxkern, name)]
    assert missing == []
