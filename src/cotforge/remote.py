"""HTTP question-generation backend with bounded retries.

Wire format: POST JSON ``{"seed", "image_id", "modality"}``, expecting a
UTF-8 JSON object ``{"question", "answer", "cot"}`` of non-empty strings
back; other keys are ignored. Transport failures and 5xx responses are
retried with exponential backoff; anything the service answered
deliberately (4xx, malformed bodies) is not, since a retry would send the
exact same request; nor is a request that could not be built or sent for
any other reason, such as a malformed URL.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Optional, Tuple

import requests

from .errors import (BackendError, MalformedResponseError, ValidationError, parse_json,
                     read_object)


@dataclasses.dataclass(frozen=True)
class _Reply:
    """The fields a reply must carry, each a non-empty string."""

    question: str
    answer: str
    cot: str

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value:
                raise ValidationError(f"field {name!r} is empty")


class RemoteQaGenerator:
    """QA backend speaking to a remote service; satisfies the forge protocol."""

    def __init__(self, endpoint: str, timeout: float = 10.0, attempts: int = 3,
                 backoff_base: float = 0.5,
                 session: Optional[requests.Session] = None,
                 sleeper: Callable[[float], None] = time.sleep):
        if not endpoint:
            raise ValidationError("remote endpoint must be non-empty")
        if attempts < 1:
            raise ValidationError("attempts must be at least 1")
        if timeout <= 0.0:
            raise ValidationError("timeout must be positive")
        if backoff_base < 0.0:
            raise ValidationError("backoff_base must be non-negative")
        self.endpoint = endpoint
        self.timeout = timeout
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.generator_id = f"remote:{endpoint}"
        self._session = session
        self._local = threading.local()
        self._sleeper = sleeper

    def generate(self, seed: str, image_id: str, modality: str, lesion_class=None,
                 organ_label=None) -> Tuple[str, str, str]:
        """POST the seed, image id and modality; the two fields are not sent."""
        payload = {"seed": seed, "image_id": image_id, "modality": modality}
        # requests does not promise that one Session is safe across threads
        session = self._session or getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        last_error: Optional[BackendError] = None
        for attempt in range(1, self.attempts + 1):
            if attempt > 1:
                self._sleeper(self.backoff_base * 2 ** (attempt - 2))
            try:
                response = session.post(self.endpoint, json=payload,
                                        timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = BackendError(
                    f"{self.endpoint}: attempt {attempt}/{self.attempts} "
                    f"failed: {exc}"
                )
                continue
            except requests.RequestException as exc:
                # a bad URL or request: sending it again cannot help
                raise BackendError(f"{self.endpoint}: request failed: {exc}") from exc
            if 500 <= response.status_code < 600:
                last_error = BackendError(
                    f"{self.endpoint}: attempt {attempt}/{self.attempts} "
                    f"got status {response.status_code}"
                )
                continue
            if not 200 <= response.status_code < 300:
                raise BackendError(
                    f"{self.endpoint}: status {response.status_code}, not retrying"
                )
            return self._parse(response)
        raise last_error

    def _parse(self, response) -> Tuple[str, str, str]:
        obj = parse_json(response.content, lambda: self.endpoint, MalformedResponseError)
        if type(obj) is not dict:  # read_object would also take an array of 3
            raise MalformedResponseError(f"{self.endpoint}: reply must be a JSON object")
        known = {f.name: obj[f.name] for f in dataclasses.fields(_Reply) if f.name in obj}
        reply = read_object(_Reply, known, self.endpoint, MalformedResponseError)
        return reply.question, reply.answer, reply.cot
