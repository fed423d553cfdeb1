import pytest

from avdcolor import (complete, cycle, generate, gnp, is_normal, petersen,
                      random_regular)
from helpers import girth


def test_cycle():
    g = cycle(5)
    assert g.n == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in g.vertices)
    with pytest.raises(ValueError):
        cycle(2)


def test_complete():
    g = complete(6)
    assert g.edge_count == 15 and g.max_degree == 5


def test_petersen_structure():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert girth(g) == 5


def test_random_regular_degrees_and_determinism():
    g = random_regular(20, 6, seed=11)
    assert all(g.degree(v) == 6 for v in g.vertices)
    assert g == random_regular(20, 6, seed=11)
    assert g != random_regular(20, 6, seed=12)
    for r in (5, 7, 9):
        h = random_regular(24, r, seed=r)
        assert h.is_regular() and h.max_degree == r


def test_random_regular_parameter_checks():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd n*r
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)  # r >= n


def test_gnp_determinism_and_bounds():
    g = gnp(30, 0.3, seed=5)
    assert g == gnp(30, 0.3, seed=5)
    assert g != gnp(30, 0.3, seed=6)
    assert gnp(10, 0.0, seed=1).edge_count == 0
    assert gnp(10, 1.0, seed=1).edge_count == 45
    with pytest.raises(ValueError):
        gnp(5, 1.5, seed=0)


def test_generate_dispatch():
    assert generate("cycle:7").edge_count == 7
    assert generate("complete:4").edge_count == 6
    assert generate("petersen").n == 10
    assert generate("random-regular:12,4", seed=3).is_regular()
    assert is_normal(generate("gnp:20,0.4", seed=9)) in (True, False)
    with pytest.raises(ValueError):
        generate("mystery:3")
    with pytest.raises(ValueError):
        generate("cycle:")


def test_random_regular_of_degree_zero_has_no_edge():
    g = random_regular(7, 0, seed=3)
    assert g.n == 7 and g.edge_count == 0
    assert g.vertices == tuple(range(7))


@pytest.mark.parametrize("spec, takes, got", [
    ("cycle:5,9", "1 argument (cycle:n)", 2),
    ("cycle:", "1 argument (cycle:n)", 0),
    ("cycle:5,", "1 argument (cycle:n)", 2),
    ("random-regular:10,,3", "2 arguments (random-regular:n,r)", 3),
    ("complete:4,4", "1 argument (complete:n)", 2),
    ("petersen:3", "0 arguments (petersen)", 1),
    ("random-regular:10,3,7", "2 arguments (random-regular:n,r)", 3),
    ("random_regular:10", "2 arguments (random-regular:n,r)", 1),
    ("gnp:20", "2 arguments (gnp:n,p)", 1),
    ("gnp:20,0.1,4", "2 arguments (gnp:n,p)", 3),
])
def test_generate_refuses_a_wrong_argument_count(spec, takes, got):
    # Each kind's count is checked before any argument is read: an extra
    # one is not dropped, and a missing one is named, not an index error.
    with pytest.raises(ValueError) as exc:
        generate(spec)
    assert str(exc.value) == (f"bad generator spec {spec!r}: "
                              f"{spec.split(':')[0].replace('_', '-')} "
                              f"takes {takes}, got {got}")


def test_generate_names_the_spec_of_a_bad_argument():
    with pytest.raises(ValueError, match=r"^bad generator spec 'cycle:2': "
                                         r"cycle needs n >= 3$"):
        generate("cycle:2")
    with pytest.raises(ValueError, match=r"^bad generator spec 'gnp:9,x': "):
        generate("gnp:9,x")
    assert generate("random_regular:10,3", seed=1) == random_regular(10, 3, 1)
    assert generate(" Petersen ") == petersen()
