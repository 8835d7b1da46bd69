"""The decode backends are spelled once, in ``core.decoder.BACKENDS``.

The decoder, the HELLO handshake and the CLI's ``--precision`` choices
all read that tuple, so each accepts exactly its members and refuses
anything else with its own message.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import _build_parser
from repro.config import SystemConfig
from repro.core import CSDecoder
from repro.core.decoder import BACKENDS
from repro.errors import ConfigurationError, ProtocolError
from repro.ingest.protocol import Handshake

#: near misses of a backend name, none of which may be accepted
NOT_BACKENDS = ("float16", "Float64", "")


def _hello_body(precision: str) -> bytes:
    config = SystemConfig(n=256, m=128, d=8, levels=4)
    payload = Handshake(
        record="100", channel=0, config=config, codebook=None, precision="float64"
    ).to_payload()
    payload["precision"] = precision
    return json.dumps(payload).encode()


def test_backend_set_is_the_papers_two_precisions_plus_hybrid():
    assert BACKENDS == ("float64", "float32", "hybrid")


class TestDecoder:
    @pytest.mark.parametrize("precision", BACKENDS)
    def test_accepts_every_backend(self, precision, small_config):
        assert CSDecoder(small_config, precision=precision).precision == precision

    @pytest.mark.parametrize("precision", NOT_BACKENDS)
    def test_refuses_anything_else(self, precision, small_config):
        with pytest.raises(ConfigurationError, match="precision must be"):
            CSDecoder(small_config, precision=precision)


class TestHandshake:
    @pytest.mark.parametrize("precision", BACKENDS)
    def test_accepts_every_backend(self, precision):
        assert Handshake.from_body(_hello_body(precision)).precision == precision

    @pytest.mark.parametrize("precision", NOT_BACKENDS)
    def test_refuses_anything_else(self, precision):
        with pytest.raises(ProtocolError, match="invalid handshake precision"):
            Handshake.from_body(_hello_body(precision))


class TestCliChoices:
    @pytest.mark.parametrize("command", ["fleet", "serve"])
    def test_precision_choices_are_the_backends(self, command):
        parser = _build_parser()
        for backend in BACKENDS:
            args = parser.parse_args([command, "--precision", backend])
            assert args.precision == backend

    @pytest.mark.parametrize("command", ["fleet", "serve"])
    def test_other_precision_exits(self, command, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([command, "--precision", "float16"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet", "serve"])
    def test_default_precision_is_float64(self, command):
        assert _build_parser().parse_args([command]).precision == "float64"
