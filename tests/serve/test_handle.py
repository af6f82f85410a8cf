"""JsonlHandle: the pipelined TCP client.

Pipelining and teardown semantics: futures correlated by
``(session_id, seq)``, responses identical to in-process submission,
and a lost server resolving every in-flight future *in-band* instead
of stranding awaiters.
"""

import asyncio

import pytest

from repro.api import spec_for
from repro.serve import (
    ERR_INTERNAL,
    JsonlHandle,
    PredictRequest,
    PredictionService,
    ServeConfig,
)
from repro.serve.net import serve_tcp

SPEC = spec_for("binary.gshare", history=4)


def run(coro):
    return asyncio.run(coro)


async def _tcp_pair(service):
    """(server, port) for a service bound to an ephemeral port."""
    server = await serve_tcp(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, port


# -- the TCP handle -------------------------------------------------------


def test_jsonl_handle_pipelines_and_matches_in_process():
    async def main():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            server, port = await _tcp_pair(service)
            handle = await JsonlHandle.connect("127.0.0.1", port)
            try:
                await handle.open_session("remote", SPEC)
                # In-process twin session for the oracle.
                await service.open_session("local", SPEC)
                futures = [handle.submit(PredictRequest(
                    "remote", op="step", pc=0x40 + 4 * (i % 4),
                    outcome=i % 2, seq=i)) for i in range(64)]
                remote = [r.result
                          for r in await asyncio.gather(*futures)]
                local = []
                for i in range(64):
                    r = await service.request(PredictRequest(
                        "local", op="step", pc=0x40 + 4 * (i % 4),
                        outcome=i % 2, seq=i))
                    local.append(r.result)
                assert remote == local
                assert await handle.close_session("remote") == 64
                await handle.ping()
            finally:
                await handle.aclose()
                server.close()
                await server.wait_closed()
    run(main())


def test_handle_open_session_surfaces_server_errors():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            server, port = await _tcp_pair(service)
            handle = await JsonlHandle.connect("127.0.0.1", port)
            try:
                await handle.open_session("s", SPEC)
                with pytest.raises(RuntimeError, match="open"):
                    await handle.open_session(
                        "s", spec_for("binary.gshare", history=6))
            finally:
                await handle.aclose()
                server.close()
                await server.wait_closed()
    run(main())


def test_lost_server_resolves_pending_in_band():
    async def main():
        service = PredictionService(ServeConfig(n_shards=1))
        await service.start()
        server, port = await _tcp_pair(service)
        handle = await JsonlHandle.connect("127.0.0.1", port)
        await handle.open_session("s", SPEC)
        # Drop the server out from under the handle.
        server.close()
        await server.wait_closed()
        await service.stop()
        response = await asyncio.wait_for(handle.submit(PredictRequest(
            "s", op="step", pc=0x40, outcome=1, seq=0)), timeout=10)
        # The awaiter is never stranded: the future resolves in-band,
        # either with the dying server's last "closed" reply or with
        # the handle's own transport-error synthesis after EOF.
        assert not response.ok
        assert response.error == "closed" or response.error.startswith(
            ERR_INTERNAL)
        await handle.aclose()
    run(main())


def test_unmatched_replies_are_counted_and_do_not_skew_in_flight():
    # A duplicate or misaddressed server reply must neither strand the
    # accounting nor be silently dropped: it is counted, and the
    # in-flight gauge (derived from the pending map) stays exact.
    from repro.serve.protocol import PredictResponse

    async def main():
        async def rogue(reader, writer):
            line = await reader.readline()
            request = PredictRequest.from_json(line.decode("utf-8"))
            for response in (
                # Misaddressed: no such pending key.
                PredictResponse(session_id="ghost", seq=99, result=0),
                # The real reply...
                PredictResponse(session_id=request.session_id,
                                seq=request.seq, result=7),
                # ... and a duplicate of it.
                PredictResponse(session_id=request.session_id,
                                seq=request.seq, result=8),
            ):
                writer.write((response.to_json() + "\n").encode("utf-8"))
            await writer.drain()

        server = await asyncio.start_server(rogue, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        handle = await JsonlHandle.connect("127.0.0.1", port)
        try:
            assert handle.in_flight == 0
            response = await handle.submit(PredictRequest(
                "s", op="step", pc=0x40, outcome=1, seq=0))
            assert response.result == 7
            # Let the pump read the trailing duplicate.
            for _ in range(50):
                if handle.unmatched == 2:
                    break
                await asyncio.sleep(0.01)
            assert handle.unmatched == 2
            assert handle.in_flight == 0
        finally:
            await handle.aclose()
            server.close()
            await server.wait_closed()
    run(main())


def test_submit_after_close_is_in_band():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            server, port = await _tcp_pair(service)
            handle = await JsonlHandle.connect("127.0.0.1", port)
            await handle.aclose()
            response = await handle.submit(PredictRequest(
                "s", op="step", pc=0x40, outcome=1, seq=0))
            assert not response.ok
            assert "handle closed" in response.error
            server.close()
            await server.wait_closed()
    run(main())
