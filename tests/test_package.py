import planwise


def test_every_export_resolves_once():
    names = planwise.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(planwise, name)]
    assert missing == []
