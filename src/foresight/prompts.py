"""Prompt template registry, placeholder rendering, and probability extraction."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Sequence

from .events import Event
from .llm import BackendError, CacheFault, CompletionBackend, CompletionRequest, complete
from .metrics import EmptyInput

__all__ = [
    "EXTRACTION_TEMPLATE_ID",
    "ExtractionFailed",
    "NoProbabilityFound",
    "PredictionWindowError",
    "PromptTemplate",
    "SampleExtraction",
    "Scale",
    "TemplateError",
    "UnboundPlaceholder",
    "aggregate_probabilities",
    "bindings",
    "days_remaining",
    "extract_probability",
    "get_template",
    "load_templates",
    "parse_probability",
    "render",
    "substitute",
]

# Slot inlined at load time so rendered prompts never carry it.
FORECASTER_SLOT = "[Forecaster Text]"

EXTRACTION_TEMPLATE_ID = "extract/probability"

_PREAMBLE_FILE = "forecaster_preamble.txt"


class TemplateError(ValueError):
    """Raised when the template registry is malformed or an id is unknown."""


class UnboundPlaceholder(ValueError):
    """Raised when a template is rendered without all its placeholders."""

    def __init__(self, template_id: str, missing: Sequence[str]):
        self.template_id = template_id
        self.missing = tuple(missing)
        names = ", ".join(self.missing)
        super().__init__(f"template {template_id!r} missing bindings: {names}")


class NoProbabilityFound(ValueError):
    """Raised when free text contains no usable probability."""

    def __init__(self, text: str):
        self.text = text
        super().__init__(f"no probability found in {_preview(text)!r}")


class ExtractionFailed(RuntimeError):
    """Raised when both the extraction prompt and the fallback parser fail."""

    def __init__(self, raw: str, reason: str):
        self.raw = raw
        self.reason = reason
        super().__init__(f"could not extract probability from {_preview(raw)!r}: {reason}")


class PredictionWindowError(ValueError):
    """Raised when the prediction date is not before the event expiry."""

    def __init__(self, event_id: str, today: date, expires: date):
        self.event_id = event_id
        self.today = today
        self.expires = expires
        super().__init__(
            f"event {event_id!r} expires {expires.isoformat()}, "
            f"cannot predict on {today.isoformat()}"
        )


def _preview(text: str, limit: int = 80) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


class Scale(Enum):
    """Scale a prediction prompt asks its answer on."""

    PERCENT = "percent"
    UNIT = "unit"


@dataclass(frozen=True)
class PromptTemplate:
    """A single prompt body.  Its placeholders are the keys of its [key]
    tokens that hold a lowercase letter, in order of first use; an
    all-capitals token such as [EVENT] is prompt text."""

    template_id: str
    body: str
    placeholders: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if not self.body:
            raise TemplateError(f"template {self.template_id!r} has an empty body")
        keys = _segments(self.body)[1::2]
        names = dict.fromkeys(key for key in keys if any(char.islower() for char in key))
        object.__setattr__(self, "placeholders", tuple(names))


def _strip_one_newline(text: str) -> str:
    # Files end with a single newline that is not part of the prompt.
    return text[:-1] if text.endswith("\n") else text


def _template_root():
    return resources.files(__package__) / "templates"


@lru_cache(maxsize=1)
def load_templates() -> Mapping[str, PromptTemplate]:
    """Load every packaged template, keyed by '<group>/<step>'."""
    preamble = _strip_one_newline((_template_root() / _PREAMBLE_FILE).read_text(encoding="utf-8"))
    registry: dict[str, PromptTemplate] = {}
    for entry in sorted(_template_root().iterdir(), key=lambda item: item.name):
        if not entry.is_dir():
            continue
        for item in sorted(entry.iterdir(), key=lambda child: child.name):
            if not item.name.endswith(".txt"):
                continue
            template_id = f"{entry.name}/{item.name[: -len('.txt')]}"
            body = _strip_one_newline(item.read_text(encoding="utf-8"))
            registry[template_id] = PromptTemplate(template_id, body.replace(FORECASTER_SLOT, preamble))
    if not registry:
        raise TemplateError("no templates found in package data")
    return MappingProxyType(registry)


def get_template(template_id: str) -> PromptTemplate:
    try:
        return load_templates()[template_id]
    except KeyError:
        raise TemplateError(f"unknown template id: {template_id!r}") from None


def days_remaining(event: Event, today: date) -> int:
    """Whole days from the prediction date to expiry; must be positive."""
    days = (event.expires - today).days
    if days <= 0:
        raise PredictionWindowError(event.id, today, event.expires)
    return days


def bindings(event: Event, today: date) -> dict[str, str]:
    """Standard placeholder bindings shared by every chain step of ``event``
    predicted on ``today``."""
    return {
        "name": event.name,
        "condition": event.condition,
        "description": event.description,
        "expiry": event.expires.isoformat(),
        "today": today.isoformat(),
        "number of days": str(days_remaining(event, today)),
    }


# A [key] token. A key holds no bracket, so a token ends at the first "]" and
# no two tokens overlap.
_TOKEN = re.compile(r"\[([^\[\]]*)\]")


@lru_cache(maxsize=256)
def _segments(body: str) -> tuple[str, ...]:
    # literal text at even indices, token keys at odd ones
    return tuple(_TOKEN.split(body))


def substitute(body: str, bindings: Mapping[str, str]) -> str:
    """Replace every [key] token in a single pass.

    Substituted values are never rescanned, so bracketed text inside event
    descriptions or model replies stays literal. Tokens with no binding stay
    as they are; a key containing "[" or "]" never matches.
    """
    parts = list(_segments(body))
    for i in range(1, len(parts), 2):
        key = parts[i]
        parts[i] = bindings[key] if key in bindings else f"[{key}]"
    return "".join(parts)


def render(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Render a template, requiring every placeholder to be bound."""
    missing = [name for name in template.placeholders if name not in bindings]
    if missing:
        raise UnboundPlaceholder(template.template_id, missing)
    return substitute(template.body, bindings)


# A number with optional percent sign, not embedded in a word, identifier,
# date, version string, or signed value. A trailing sentence period is fine.
_NUMBER = re.compile(r"(?<![\w.\-])(\d+(?:\.\d+)?|\.\d+)(%?)(?![\w%\-])(?!\.\d)")
_THOUSANDS_COMMA = re.compile(r"(?<=\d),(?=\d)")


def parse_probability(text: str, *, scale: Scale = Scale.PERCENT) -> float:
    """Pull the last usable probability out of free text.

    Numbers with a percent sign are divided by 100. Bare numbers above 1 are
    treated as percentages only when the template asked for a percentage.
    """
    cleaned = _THOUSANDS_COMMA.sub("", text)
    found = None
    for match in _NUMBER.finditer(cleaned):
        value = float(match.group(1))
        if match.group(2):
            value /= 100.0
        elif value > 1.0:
            if scale is Scale.PERCENT and value <= 100.0:
                value /= 100.0
            else:
                continue
        if 0.0 <= value <= 1.0:
            found = value
    if found is None:
        raise NoProbabilityFound(text)
    return found


@dataclass(frozen=True)
class SampleExtraction:
    """How one sampled reply was turned into a probability."""

    sample_index: int
    prompt: str | None
    response: str | None
    probability: float
    fallback_used: bool
    error: str | None = None


def extract_probability(
    raw: str,
    *,
    scale: Scale,
    extractor: CompletionBackend,
    sample_index: int = 0,
) -> tuple[float, SampleExtraction]:
    """Turn one raw model reply, sample ``sample_index`` of its step, into a
    probability.

    An extraction prompt is sent to ``extractor`` first and its reply parsed
    on the unit scale. A :class:`CacheFault` there is raised as it is; any
    other failure on that route falls back to parsing the raw reply directly.
    """
    template = get_template(EXTRACTION_TEMPLATE_ID)
    prompt = render(template, {"response": raw})
    response = None
    try:
        result = complete(extractor, CompletionRequest(prompt=prompt, n_samples=1))
    except CacheFault:
        raise
    except BackendError as exc:
        error = f"extractor backend failed: {exc}"
    else:
        response = result.texts[0]
        try:
            value = parse_probability(response, scale=Scale.UNIT)
        except NoProbabilityFound:
            error = f"extractor reply had no probability: {_preview(response)!r}"
        else:
            return value, SampleExtraction(
                sample_index, prompt, response, value, fallback_used=False
            )
    try:
        value = parse_probability(raw, scale=scale)
    except NoProbabilityFound as exc:
        raise ExtractionFailed(raw, f"{error}; {exc}") from None
    return value, SampleExtraction(
        sample_index, prompt, response, value, fallback_used=True, error=error
    )


def aggregate_probabilities(values: Sequence[float]) -> float:
    """Mean of sampled probabilities, accumulated exactly before dividing."""
    samples = tuple(float(value) for value in values)
    if not samples:
        raise EmptyInput("no probabilities to aggregate")
    for value in samples:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"probability out of range: {value!r}")
    return math.fsum(samples) / len(samples)
