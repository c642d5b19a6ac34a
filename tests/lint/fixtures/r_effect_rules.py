# repro-lint: module=algorithms/fixture_effects.py
"""Dirty and clean cases for the interleaving rules R1/R2/R3.

The R2 *dynamic* counterpart (a racy agent the DPOR explorer must also
catch) lives in ``tests/verify/fixtures/racy_agent.py``; this fixture pins
the static rules' line anchors and their clean counterexamples.
"""


class BypassAgent(SimulatedAgent):  # noqa: F821 — name-based closure
    def step(self, messages):
        for message in messages:
            if isinstance(message, OkMessage):  # noqa: F821
                # R1: reaching into the view's private internals.
                self.agent_view._entries[message.variable] = message.value
                # R1: item-assigning around update()'s priority stamp.
                self.neighbor_view[message.variable] = message.value
        return []

    def absorb(self, message):
        # Clean: the counter-guarded API.
        self.agent_view.update(message.variable, message.value)
        # Clean: item writes into non-view containers are fine.
        self.counts[message.sender] = 1


class CommitAgent(SimulatedAgent):  # noqa: F821
    def step(self, messages):
        for message in messages:
            if isinstance(message, OkMessage):  # noqa: F821
                # R2: decision state committed per message; conflicts with
                # the NogoodMessage handler below on 'value'.
                self.value = message.value
            if isinstance(message, NogoodMessage):  # noqa: F821
                self.last = self.value
        return []


class StagedAgent(SimulatedAgent):  # noqa: F821
    def step(self, messages):
        changed = False
        for message in messages:
            if isinstance(message, OkMessage):  # noqa: F821
                # Clean: handlers only absorb; both write 'changed' (a
                # conflict) but neither commits decision state in dispatch.
                self.view.update(message.variable, message.value)
                changed = True
            if isinstance(message, NogoodMessage):  # noqa: F821
                self.store.add(message.nogood)
                changed = True
        if changed:
            self.value = self._choose()  # deciding once afterwards is fine
        return []

    def _choose(self):
        return 0


class LyingAgent(SimulatedAgent):  # noqa: F821
    def is_consistent(self, view):
        # R3 (transitive): consultation-named, but the helper mutates the
        # store.
        return self._absorb_and_check(view)

    def _absorb_and_check(self, view):
        self.store.add(view)
        return self.store.is_violated(view)

    def count_open(self, view):
        # Clean: consultation that only consults.
        return self.store.count_violated(view)


class EmitterAgent(SimulatedAgent):  # noqa: F821
    def step(self, messages):
        # Balances the family protocol (S5): the handlers above absorb the
        # message types this agent emits.
        return [
            (1, OkMessage(self.variable, self.value)),  # noqa: F821
            (1, NogoodMessage(self.id, self.nogood)),  # noqa: F821
        ]
