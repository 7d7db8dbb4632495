"""Hot-swap visibility through every cached call path.

Plan compilation introduces three layers of caching between a caller
and the aspect bank: the moderator's plan cache, per-method
:class:`PlanHandle` objects, and the proxy/weaver wrapper caches. The
paper's central promise — aspects are runtime-replaceable without
touching callers ("the semantics of the system can change dynamically
by registering different aspects", Section 5) — therefore needs an
end-to-end guarantee: a composition mutation made *now* is observed by
the *next* activation, no matter which cached artifact the caller is
holding.

Each test mutates the live composition (swap, quarantine, reinstate,
lock-domain move, register/unregister) and asserts the very next call
through a previously-used — and therefore fully cached — entry point
sees the new composition. Covered entry points:

* :class:`ComponentProxy` dynamic wrappers (including a *captured*
  bound wrapper from before the mutation);
* hand-written paper-style proxies using :class:`GuardedMethod`;
* ``@moderated``-woven classes (decorator weaving);
* :meth:`AspectModerator.moderate_call` with an explicit plan handle.
"""

import pytest

from repro.core import (
    AspectModerator,
    ComponentProxy,
    FunctionAspect,
    GuardedMethod,
    MethodAborted,
    ABORT,
    moderated,
    participating,
)


def _veto(concern="gate"):
    """An aspect that rejects every activation."""
    return FunctionAspect(
        concern=concern, never_blocks=True,
        precondition=lambda jp: ABORT,
    )


def _counter(concern="gate", seen=None):
    """An aspect that records every activation it admits."""
    seen = seen if seen is not None else []
    aspect = FunctionAspect(
        concern=concern, never_blocks=True,
        precondition=lambda jp: seen.append(jp.activation_id),
    )
    aspect.seen = seen
    return aspect


class Counter:
    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1
        return self.value


class TestProxyVisibility:
    def test_swap_is_seen_by_a_captured_wrapper(self):
        moderator = AspectModerator()
        first = _counter()
        moderator.register_aspect("bump", "gate", first)
        proxy = ComponentProxy(Counter(), moderator)

        wrapper = proxy.bump  # capture the cached guarded wrapper
        assert wrapper() == 1
        assert len(first.seen) == 1

        second = _counter()
        moderator.bank.swap("bump", "gate", second)
        assert wrapper() == 2  # same captured wrapper, new aspect
        assert len(first.seen) == 1  # the old aspect saw nothing new
        assert len(second.seen) == 1

    def test_swap_to_vetoing_aspect_blocks_next_call(self):
        moderator = AspectModerator()
        moderator.register_aspect("bump", "gate", _counter())
        component = Counter()
        proxy = ComponentProxy(component, moderator)
        assert proxy.bump() == 1

        moderator.bank.swap("bump", "gate", _veto())
        with pytest.raises(MethodAborted):
            proxy.bump()
        assert component.value == 1  # the component never ran

    def test_quarantine_and_reinstate_round_trip(self):
        moderator = AspectModerator()
        moderator.register_aspect(
            "bump", "gate",
            FunctionAspect(
                concern="gate", never_blocks=True,
                precondition=lambda jp: (_ for _ in ()).throw(
                    RuntimeError("flaky")),
            ),
            fault_policy="fail_open", fault_threshold=2,
        )
        proxy = ComponentProxy(Counter(), moderator)

        # two faulting calls quarantine the fail-open cell...
        for _ in range(2):
            with pytest.raises(Exception):
                proxy.bump()
        assert moderator.plan_for("bump").cells[0].degraded == "fail_open"

        # ...after which activations silently proceed without it
        assert proxy.bump() == 1

        # reinstatement restores the (still faulty) aspect immediately
        assert moderator.reinstate_aspect("bump", "gate")
        assert moderator.plan_for("bump").cells[0].degraded is None
        with pytest.raises(Exception):
            proxy.bump()

    def test_register_and_unregister_change_participation(self):
        moderator = AspectModerator()
        component = Counter()
        proxy = ComponentProxy(component, moderator)
        assert proxy.bump() == 1  # not participating: plain pass-through

        moderator.register_aspect("bump", "gate", _veto())
        with pytest.raises(MethodAborted):
            proxy.bump()

        moderator.unregister_aspect("bump", "gate")
        assert proxy.bump() == 2  # plain again

    def test_lock_domain_move_is_seen_by_next_plan(self):
        moderator = AspectModerator()
        moderator.register_aspect("bump", "gate", _counter())
        proxy = ComponentProxy(Counter(), moderator)
        assert proxy.bump() == 1
        before = moderator.plan_for("bump")

        moderator.assign_lock_domain("shared", "bump")
        after = moderator.plan_for("bump")
        assert after is not before
        assert after.domain_name == "shared"
        assert proxy.bump() == 2  # calls still moderate under the move


class TestGuardedMethodVisibility:
    def _server(self, moderator):
        class Server(Counter):
            pass

        class ServerProxy(Server):
            bump = GuardedMethod("bump")

            def __init__(self, mod):
                super().__init__()
                self.moderator = mod

        return ServerProxy(moderator)

    def test_swap_is_seen_by_descriptor_calls(self):
        moderator = AspectModerator()
        first = _counter()
        moderator.register_aspect("bump", "gate", first)
        server = self._server(moderator)

        bound = server.bump  # capture the bound guarded method
        assert bound() == 1
        moderator.bank.swap("bump", "gate", _veto())
        with pytest.raises(MethodAborted):
            server.bump()
        # even the previously-captured binding observes the swap
        with pytest.raises(MethodAborted):
            bound()
        assert len(first.seen) == 1


class TestWovenClassVisibility:
    def test_swap_is_seen_by_woven_methods(self):
        moderator = AspectModerator()
        first = _counter()
        moderator.register_aspect("bump", "gate", first)

        @moderated
        class Server:
            def __init__(self, mod):
                self.moderator = mod
                self.value = 0

            @participating("gate")
            def bump(self):
                self.value += 1
                return self.value

        server = Server(moderator)
        assert server.bump() == 1
        assert len(first.seen) == 1

        moderator.bank.swap("bump", "gate", _veto())
        with pytest.raises(MethodAborted):
            server.bump()
        assert server.value == 1

    def test_reorder_is_seen_by_woven_methods(self):
        moderator = AspectModerator()
        order = []
        moderator.register_aspect(
            "bump", "a",
            FunctionAspect(concern="a", never_blocks=True,
                           precondition=lambda jp: order.append("a")))
        moderator.register_aspect(
            "bump", "b",
            FunctionAspect(concern="b", never_blocks=True,
                           precondition=lambda jp: order.append("b")))

        @moderated
        class Server:
            def __init__(self, mod):
                self.moderator = mod

            @participating("a", "b")
            def bump(self):
                return True

        server = Server(moderator)
        assert server.bump()
        assert order == ["a", "b"]

        moderator.bank.set_order("bump", ["b", "a"])
        order.clear()
        assert server.bump()
        assert order == ["b", "a"]


class TestModerateCallVisibility:
    def test_swap_between_moderate_calls(self):
        moderator = AspectModerator()
        moderator.register_aspect("work", "gate", _counter())
        handle = moderator.plan_handle("work")
        first_plan = handle.current()

        assert moderator.moderate_call("work", lambda: "ok") == "ok"
        moderator.bank.swap("work", "gate", _veto())
        with pytest.raises(MethodAborted):
            moderator.moderate_call("work", lambda: "ok")
        assert handle.current() is not first_plan
