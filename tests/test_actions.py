"""Tests for the per-slot actions' value semantics (repro.sim.actions).

The actions are plain ``__slots__`` classes.  They keep what their
frozen-dataclass forms gave the code: equality on the exact class and the
field tuple, a hash of the field tuple, the ``Name(field=value)`` repr,
``Idle``'s check on its duration and pickling.
"""

from __future__ import annotations

import pickle

import pytest

from repro.sim import Idle, Listen, Send, SendListen
from repro.sim.plan import exact_action

_EXAMPLES = [Send("m"), Listen(), SendListen(("path", 3, ())), Idle(4)]


class _MySend(Send):
    pass


class _MyListen(Listen):
    pass


class _MySendListen(SendListen):
    pass


class _MyIdle(Idle):
    pass


class TestEquality:
    def test_equal_fields_on_the_same_class(self):
        assert Send("m") == Send("m")
        assert SendListen(("a", 1)) == SendListen(("a", 1))
        assert Listen() == Listen()
        assert Idle(3) == Idle(3)
        assert Idle() == Idle(1)

    def test_different_fields_or_classes_differ(self):
        assert Send("m") != Send("n")
        assert Idle(2) != Idle(3)
        # Same field values, different class.
        assert Send("m") != SendListen("m")
        assert Listen() != Idle(1)
        assert Send("m") != ("m",)

    def test_subclass_instances_differ_from_their_base(self):
        assert _MyIdle(2) != Idle(2)
        assert Idle(2) != _MyIdle(2)
        assert _MyIdle(2) == _MyIdle(2)

    def test_fields_compare_as_tuples(self):
        # A field tuple compares its items by identity first, so one nan
        # object equals itself; two nan objects do not.
        nan = float("nan")
        assert Send(nan) == Send(nan)
        assert Send(float("nan")) != Send(float("nan"))


class TestHash:
    def test_hash_is_the_field_tuple_hash(self):
        assert hash(Idle(3)) == hash((3,))
        assert hash(Send("m")) == hash(("m",))
        assert hash(SendListen("m")) == hash(("m",))
        assert hash(Listen()) == hash(())

    def test_equal_actions_share_a_set_slot(self):
        actions = {Send("m"), Send("m"), SendListen("m"), Idle(1), Idle()}
        assert len(actions) == 3

    def test_unhashable_message_makes_an_unhashable_action(self):
        with pytest.raises(TypeError):
            hash(Send(["m"]))


class TestRepr:
    def test_repr_names_class_and_fields(self):
        assert repr(Idle(3)) == "Idle(duration=3)"
        assert repr(Listen()) == "Listen()"
        assert repr(Send("m")) == "Send(message='m')"
        assert repr(SendListen(("a", 1))) == "SendListen(message=('a', 1))"

    def test_subclass_repr_names_the_subclass(self):
        assert repr(_MyIdle(2)) == "_MyIdle(duration=2)"


class TestIdleDuration:
    @pytest.mark.parametrize("duration", [0, -1])
    def test_below_one_raises(self, duration):
        with pytest.raises(
            ValueError, match=f"Idle duration must be >= 1, got {duration}"
        ):
            Idle(duration)

    def test_subclass_checks_too(self):
        with pytest.raises(ValueError):
            _MyIdle(0)


class TestPlainClasses:
    @pytest.mark.parametrize("action", _EXAMPLES, ids=repr)
    def test_no_instance_dict(self, action):
        # __slots__ only: construction costs a plain attribute store.
        assert not hasattr(action, "__dict__")

    @pytest.mark.parametrize(
        "protocol", range(2, pickle.HIGHEST_PROTOCOL + 1)
    )
    @pytest.mark.parametrize("action", _EXAMPLES + [_MyIdle(5)], ids=repr)
    def test_pickle_round_trip(self, action, protocol):
        copy = pickle.loads(pickle.dumps(action, protocol=protocol))
        assert copy.__class__ is action.__class__
        assert copy == action


class TestExactAction:
    @pytest.mark.parametrize("action", _EXAMPLES, ids=repr)
    def test_exact_instances_pass_through(self, action):
        assert exact_action(action) is action

    @pytest.mark.parametrize(
        "sub,base",
        [
            (_MySend("m"), Send("m")),
            (_MyListen(), Listen()),
            (_MySendListen("m"), SendListen("m")),
            (_MyIdle(3), Idle(3)),
        ],
        ids=["Send", "Listen", "SendListen", "Idle"],
    )
    def test_subclass_instances_are_rebuilt_on_the_base(self, sub, base):
        rebuilt = exact_action(sub)
        assert rebuilt.__class__ is base.__class__
        assert rebuilt == base
