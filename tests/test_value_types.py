"""The package's record classes: value semantics where callers rely on them,
and a start-up that loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from sgortho.addresses import VertexAddress
from sgortho.families import OPFamily
from sgortho.grid import FieldOnGrid, LevelGrid, build_grid
from sgortho.inner import SobolevParams

SRC = Path(__file__).resolve().parents[1] / "src"


def test_families_built_without_recurrence_do_not_share_a_dict():
    a = OPFamily(1, SobolevParams(), [], [])
    b = OPFamily(1, SobolevParams(), [], [])
    a.recurrence["c"] = {1: F(1)}
    assert b.recurrence == {} and a.recurrence is not b.recurrence
    table = {"c": {}}
    assert OPFamily(1, SobolevParams(), [], [], "x", table).recurrence is table


@pytest.mark.parametrize("value, name", [
    (SobolevParams((1, 2)), "chi"),
    (VertexAddress((0,), 1), "word"),
    (VertexAddress((0,), 1), "corner"),
    (LevelGrid(2), "m"),
])
def test_value_types_reject_assignment(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        value.other = 1
    assert getattr(value, name) == before


@pytest.mark.parametrize("make", [
    lambda: SobolevParams([1, F(1, 2)]),
    lambda: VertexAddress.make((0, 2, 2), 2),
    lambda: LevelGrid(3),
])
def test_equal_values_hash_alike(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values_differ():
    assert SobolevParams((1, 1)) != SobolevParams((1, 2))
    assert VertexAddress((0,), 1) != VertexAddress((0,), 2)
    assert VertexAddress((0,), 1) != VertexAddress((1,), 1)
    assert LevelGrid(2) != LevelGrid(3)
    # no cross-type equality, and no equality with the bare fields
    assert LevelGrid(2) != 2 and SobolevParams() != (F(1),)
    assert VertexAddress((), 1) != ((), 1)


def test_vertex_addresses_sort_by_word_then_corner():
    addrs = [VertexAddress((1,), 2), VertexAddress((0, 1), 2), VertexAddress((), 2),
             VertexAddress((0,), 2), VertexAddress((0,), 1), VertexAddress((), 0)]
    assert sorted(addrs) == sorted(addrs, key=lambda a: (a.word, a.corner))
    assert sorted(addrs)[:3] == [VertexAddress((), 0), VertexAddress((), 2),
                                 VertexAddress((0,), 1)]
    with pytest.raises(TypeError):
        VertexAddress((), 0) < ((), 1)


def test_level_grid_equals_build_grid():
    assert LevelGrid(3) == build_grid(3)
    assert LevelGrid(3) != build_grid(2)


def test_field_length_must_match_the_grid():
    # repeated nodes and bad weights: test_interp_quad.py and test_inner.py
    with pytest.raises(ValueError, match="length must match"):
        FieldOnGrid(build_grid(1), [F(0)] * 5)
    assert FieldOnGrid(build_grid(1), [F(0)] * 6).values == [F(0)] * 6


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # -S keeps the host's site .pth imports out of the child
    code = ("import sys, sgortho.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
