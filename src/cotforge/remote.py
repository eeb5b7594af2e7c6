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

from .errors import (BackendError, MalformedResponseError, NonEmptyStr, PositiveInt, Record,
                     checked, parse_json, read_object)
from .forge import HttpUrl, RemoteBackoff, RemoteTimeout


@dataclasses.dataclass(frozen=True)
class _Reply(Record):
    """The fields a reply must carry, each a non-empty string."""

    question: NonEmptyStr
    answer: NonEmptyStr
    cot: NonEmptyStr


class RemoteQaGenerator:
    """QA backend speaking to a remote service; satisfies the forge protocol.

    Its arguments follow the rules of the config's ``forge.remote_*`` fields.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0, attempts: int = 3,
                 backoff_base: float = 0.5,
                 session: Optional[requests.Session] = None,
                 sleeper: Callable[[float], None] = time.sleep):
        self.endpoint = checked("endpoint", endpoint, HttpUrl)
        self.timeout = checked("timeout", timeout, RemoteTimeout)
        self.attempts = checked("attempts", attempts, PositiveInt)
        self.backoff_base = checked("backoff_base", backoff_base, RemoteBackoff)
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
        where = lambda: self.endpoint
        obj = parse_json(response.content, where, MalformedResponseError)
        if type(obj) is not dict:  # checked here, as the known keys are picked first
            raise MalformedResponseError(f"{self.endpoint}: reply must be a JSON object")
        known = {f.name: obj[f.name] for f in dataclasses.fields(_Reply) if f.name in obj}
        reply = read_object(_Reply, known, where, MalformedResponseError)
        return reply.question, reply.answer, reply.cot
