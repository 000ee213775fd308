import confound_lens


def test_every_exported_name_resolves_once():
    names = confound_lens.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(confound_lens, name)]
    assert missing == []
