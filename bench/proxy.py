"""Counting proxy for a statecoach text backend.

The program receives a ``CountingBackend`` in place of its backend.  It
forwards every interface method to the wrapped backend unchanged and counts
calls per method, embeds of a text this proxy has already embedded, and the
exceptions the backend raised.  With a tracer attached, each call is also a
``backends.<method>`` span.
"""

from __future__ import annotations

from collections import Counter

# The duck-typed backend interface shared by ScriptedBackend and HttpBackend.
BACKEND_METHODS = (
    "generate_response",
    "generate_client_reply",
    "classify_counselor_action",
    "classify_talk_type",
    "choose_client_action",
    "summarize",
    "embed",
)


class CountingBackend:
    def __init__(self, inner, tracer=None):
        self.inner = inner
        self.tracer = tracer
        self.calls: Counter[str] = Counter()
        self.embed_repeats = 0
        self.errors: list[str] = []
        self._embedded: set[str] = set()

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def _call(self, name: str, args: tuple, kwargs: dict):
        self.calls[name] += 1
        if name == "embed":
            text = args[0] if args else kwargs["text"]
            if text in self._embedded:
                self.embed_repeats += 1
            else:
                self._embedded.add(text)
        fn = getattr(self.inner, name)
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.call("backends." + name, fn, *args, **kwargs)
        except Exception as exc:
            self.errors.append(f"{name}: {exc!r}")
            raise


def _forward(name: str):
    def method(self, *args, **kwargs):
        return self._call(name, args, kwargs)

    method.__name__ = name
    return method


for _name in BACKEND_METHODS:
    setattr(CountingBackend, _name, _forward(_name))
