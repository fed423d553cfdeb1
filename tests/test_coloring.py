import dataclasses
import json
import random

import pytest

from avdcolor import (Graph, NotNormalError, avd_color, avd_color_budget,
                      avd_color_regular, avd_subcubic, check_avd, check_proper,
                      complete, compose, cycle, edge_induced, gnp, main_bound,
                      make_coloring, partition_p2, petersen, random_regular,
                      regular_bound)
from avdcolor.coloring import certificate_from_dict, certificate_to_dict
from helpers import normal_gnp_corpus


def _checked(g, cert):
    assert check_proper(g, cert.coloring) == (True, None)
    assert check_avd(g, cert.coloring) == (True, None)
    assert cert.colors_used == cert.coloring.colors_used <= cert.bound_claimed
    for (u, v), c in cert.per_edge_witness.items():
        assert (c in cert.coloring.colors_at(u)) != (c in cert.coloring.colors_at(v))
    expected = {(u, v) for u, v in g.edges if g.degree(u) == g.degree(v)}
    assert set(cert.per_edge_witness) == expected
    return cert


def test_budget_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    cert = avd_color_budget(g, 2)
    assert cert is not None and cert.colors_used == 2
    _checked(g, cert)


def test_budget_c5_exactly_five():
    c5 = cycle(5)
    assert avd_color_budget(c5, 4) is None
    cert = avd_color_budget(c5, 5)
    assert cert is not None
    _checked(c5, cert)


def test_budget_k4_exactly_five():
    k4 = complete(4)
    assert avd_color_budget(k4, 4) is None
    assert avd_color_budget(k4, 3) is None
    cert = avd_color_budget(k4, 5)
    assert cert is not None
    _checked(k4, cert)


def test_budget_preconditions():
    with pytest.raises(NotNormalError):
        avd_color_budget(Graph(2, [(0, 1)]), 3)
    with pytest.raises(ValueError):
        avd_color_budget(cycle(5), 1)


def test_budget_monotone():
    rng = random.Random(1)
    graphs = normal_gnp_corpus(10, 40, 4, 7, 1, 6, p_lo=0.3, p_hi=0.9)
    for g in graphs:
        sat = [b for b in range(g.max_degree, g.max_degree + 5)
               if avd_color_budget(g, b) is not None]
        if sat:
            lo = sat[0]
            assert sat == list(range(lo, g.max_degree + 5))


def test_subcubic_petersen():
    cert = avd_subcubic(petersen())
    assert cert.bound_claimed == 5 and cert.colors_used <= 5
    _checked(petersen(), cert)


def test_subcubic_c6_three_colors():
    cert = avd_subcubic(cycle(6))
    assert cert.colors_used == 3
    _checked(cycle(6), cert)


def test_subcubic_rejects():
    with pytest.raises(NotNormalError):
        avd_subcubic(Graph(2, [(0, 1)]))
    with pytest.raises(ValueError):
        avd_subcubic(complete(5))


def test_compose_single_part_relabels_from_one():
    g = cycle(6)
    cert = avd_subcubic(g)
    out = compose([(g, cert)], host=g)
    assert out.colors_used == cert.colors_used
    assert sorted(out.coloring.palette) == list(range(1, out.colors_used + 1))
    _checked(g, out)


def test_compose_two_parts_disjoint_palettes():
    g = complete(7)
    part = partition_p2(g)
    pieces = []
    for sub in part.part_graphs():
        cert = (avd_subcubic(sub) if sub.max_degree <= 3
                else avd_color_budget(sub, 3 * sub.max_degree))
        pieces.append((sub, cert))
    out = compose(pieces, host=g)
    assert out.colors_used == sum(c.colors_used for _, c in pieces)
    assert out.colors_used <= sum(c.bound_claimed for _, c in pieces)
    _checked(g, out)


def test_compose_rejects_bad_partition():
    g = cycle(6)
    half = edge_induced(g, [(0, 1), (1, 2), (2, 3)])
    half_cert = avd_subcubic(half)
    with pytest.raises(ValueError):
        compose([(half, half_cert)], host=g)  # does not cover the host
    full_cert = avd_subcubic(g)
    with pytest.raises(ValueError):
        compose([(half, full_cert)], host=g)  # certificate/part mismatch
    clash = dict(full_cert.coloring.assignment)
    clash[(0, 1)] = clash[(1, 2)]
    bad_cert = dataclasses.replace(full_cert,
                                   coloring=make_coloring(g, clash))
    with pytest.raises(ValueError):
        compose([(g, bad_cert)], host=g)  # improper part certificate


def test_compose_property_random():
    for g in normal_gnp_corpus(8, 700, 10, 26, 6, 10, p_lo=0.3, p_hi=0.6):
        part = partition_p2(g)
        pieces = []
        for sub in part.part_graphs():
            cert = (avd_subcubic(sub) if sub.max_degree <= 3
                    else avd_color_budget(sub, 3 * sub.max_degree))
            pieces.append((sub, cert))
        out = compose(pieces, host=g)
        _checked(g, out)


def test_avd_color_routing_bounds():
    for g, limit in ((petersen(), 5), (complete(5), 12)):
        cert = avd_color(g)
        assert cert.colors_used <= limit
        assert cert.bound_claimed == main_bound(g.max_degree)
        _checked(g, cert)
    k7 = complete(7)
    cert = avd_color(k7)
    assert cert.bound_claimed == 20  # floor(5 * 8 / 2)
    _checked(k7, cert)


def test_avd_color_rejects_non_normal():
    with pytest.raises(NotNormalError):
        avd_color(Graph(4, [(0, 1), (2, 3)]))


def test_avd_color_random_instances():
    for g in normal_gnp_corpus(12, 2200, 8, 40, 4, 12):
        cert = avd_color(g)
        assert cert.colors_used <= main_bound(g.max_degree)
        _checked(g, cert)


def test_avd_color_disconnected_input():
    # disjoint union: K7, a 5-cycle on 7..11, a triangle on 12..14
    edges = sorted(complete(7).edges)
    edges += [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    edges += [(12, 13), (13, 14), (12, 14)]
    g = Graph(15, edges)
    cert = avd_color(g)
    assert cert.colors_used <= main_bound(g.max_degree)
    _checked(g, cert)
    part = partition_p2(g)
    graphs = part.part_graphs()
    assert graphs[0].max_degree <= 5
    assert all(p.max_degree <= 3 for p in graphs[1:])


def test_avd_color_regular_disconnected():
    # two disjoint 5-cliques form a disconnected 4-regular graph
    edges = sorted(complete(5).edges)
    edges += [(u + 5, v + 5) for u, v in complete(5).edges]
    g = Graph(10, edges)
    cert = avd_color_regular(g)
    assert cert.colors_used <= regular_bound(4)
    _checked(g, cert)


def test_avd_color_regular_examples():
    g5 = random_regular(16, 5, seed=21)
    cert = avd_color_regular(g5)
    assert cert.colors_used <= 10  # two subcubic parts
    _checked(g5, cert)

    g7 = random_regular(16, 7, seed=22)
    cert = avd_color_regular(g7)
    assert cert.colors_used <= 24 == regular_bound(7)
    _checked(g7, cert)

    g6 = random_regular(15, 6, seed=23)
    cert = avd_color_regular(g6)
    assert cert.colors_used <= 17  # 12 + 5
    _checked(g6, cert)


def test_avd_color_regular_low_degree_routing():
    c5 = cycle(5)
    cert = avd_color_regular(c5)
    assert cert.bound_claimed == regular_bound(2)
    _checked(c5, cert)
    with pytest.raises(ValueError):
        avd_color_regular(gnp(12, 0.4, seed=0))


def test_certificate_parts_are_the_colored_partition():
    k7 = complete(7)
    cert = avd_color(k7)
    assert list(cert.parts) == partition_p2(k7).parts
    assert cert.with_bound(cert.bound_claimed + 1).parts == cert.parts
    assert avd_color(petersen()).parts == (petersen().edges,)
    assert avd_color(complete(6)).parts == (complete(6).edges,)
    back = certificate_from_dict(certificate_to_dict(cert), host=k7)
    assert back.parts == ()


def test_certificate_serialization_roundtrip():
    g = complete(7)
    cert = avd_color(g)
    data = json.loads(json.dumps(certificate_to_dict(cert)))
    back = certificate_from_dict(data, host=g)
    assert back.coloring.assignment == cert.coloring.assignment
    assert back.colors_used == cert.colors_used
    assert back.bound_claimed == cert.bound_claimed
    assert back.per_edge_witness == cert.per_edge_witness
    with pytest.raises(ValueError):
        certificate_from_dict(data, host=cycle(5))
