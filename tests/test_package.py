import mchcontrol


def test_public_names_resolve():
    """Every exported name exists, so a deletion cannot leave one dangling."""
    for name in mchcontrol.__all__:
        getattr(mchcontrol, name)
