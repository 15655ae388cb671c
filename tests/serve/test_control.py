"""The HTTP control plane: health, metrics, tenant CRUD, drain."""

import asyncio
import json

from repro.serve import ReproServer, ServerConfig, TenantConfig


async def _http(port, method, path, body=None):
    """One hand-rolled HTTP/1.1 request; returns (status, decoded body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    header, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(header.split()[1])
    text = body_bytes.decode()
    try:
        return status, json.loads(text)
    except json.JSONDecodeError:
        return status, text


class TestControlPlane:
    def _scenario(self, tmp_path, body):
        async def wrapper():
            server = ReproServer(ServerConfig(checkpoint_dir=tmp_path, jobs=1))
            await server.start()
            try:
                return await body(server, server.control_port)
            finally:
                await server.stop()

        return asyncio.run(wrapper())

    def test_healthz(self, tmp_path):
        async def body(server, port):
            return await _http(port, "GET", "/healthz")

        status, health = self._scenario(tmp_path, body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["sessions"] == 0
        assert health["connections"] == 0

    def test_metrics_expositions(self, tmp_path):
        async def body(server, port):
            server.metrics.incr("messages", 7)
            prometheus = await _http(port, "GET", "/metrics")
            as_json = await _http(port, "GET", "/metrics.json")
            return prometheus, as_json

        (p_status, text), (j_status, snap) = self._scenario(tmp_path, body)
        assert p_status == 200
        assert "repro_serve_messages_total 7" in text
        assert j_status == 200
        assert snap["counters"]["messages"] == 7

    def test_tenant_crud(self, tmp_path):
        config = TenantConfig(name="lab", gamma=0.02, durable=False)

        async def body(server, port):
            created = await _http(port, "PUT", "/tenants/lab", config.to_dict())
            listed = await _http(port, "GET", "/tenants")
            fetched = await _http(port, "GET", "/tenants/lab")
            deleted = await _http(port, "DELETE", "/tenants/lab")
            missing = await _http(port, "GET", "/tenants/lab")
            return created, listed, fetched, deleted, missing

        created, listed, fetched, deleted, missing = self._scenario(
            tmp_path, body
        )
        assert created == (200, config.to_dict())
        assert listed[0] == 200
        assert {t["name"] for t in listed[1]["tenants"]} == {"default", "lab"}
        assert fetched == (200, config.to_dict())
        assert deleted == (200, {"deleted": "lab"})
        assert missing[0] == 404

    def test_put_validates_and_name_must_match_path(self, tmp_path):
        async def body(server, port):
            bad_gamma = await _http(
                port, "PUT", "/tenants/x", {"name": "x", "gamma": 2.0}
            )
            name_clash = await _http(
                port, "PUT", "/tenants/x", {"name": "y"}
            )
            unknown_key = await _http(
                port, "PUT", "/tenants/x", {"gammma": 0.1}
            )
            return bad_gamma, name_clash, unknown_key

        for status, payload in self._scenario(tmp_path, body):
            assert status == 400
            assert "error" in payload

    def test_put_refuses_the_retired_ingest_ring_keys(self, tmp_path):
        async def body(server, port):
            policy = await _http(
                port, "PUT", "/tenants/x", {"name": "x", "policy": "block"}
            )
            buffer = await _http(
                port, "PUT", "/tenants/x", {"name": "x", "buffer_frames": 64}
            )
            listed = await _http(port, "GET", "/tenants")
            return policy, buffer, listed

        policy, buffer, listed = self._scenario(tmp_path, body)
        for (status, payload), key in ((policy, "policy"), (buffer, "buffer_frames")):
            assert status == 400
            assert f"unknown tenant config key(s) ['{key}']" in payload["error"]
        assert {t["name"] for t in listed[1]["tenants"]} == {"default"}

    def test_default_tenant_cannot_be_deleted(self, tmp_path):
        async def body(server, port):
            return await _http(port, "DELETE", "/tenants/default")

        status, payload = self._scenario(tmp_path, body)
        assert status == 404
        assert "default" in payload["error"]

    def test_unknown_route_and_bad_method(self, tmp_path):
        async def body(server, port):
            nowhere = await _http(port, "GET", "/nowhere")
            bad_method = await _http(port, "POST", "/healthz")
            return nowhere, bad_method

        nowhere, bad_method = self._scenario(tmp_path, body)
        assert nowhere[0] == 404
        assert bad_method[0] == 405

    def test_drain_flips_health_and_refuses_mutations(self, tmp_path):
        async def body(server, port):
            accepted = await _http(port, "POST", "/drain")
            await asyncio.sleep(0.05)  # let the drain task run
            health = await _http(port, "GET", "/healthz")
            again = await _http(port, "POST", "/drain")
            refused_put = await _http(
                port, "PUT", "/tenants/late", {"name": "late"}
            )
            refused_delete = await _http(port, "DELETE", "/tenants/late")
            return accepted, health, again, refused_put, refused_delete

        accepted, health, again, refused_put, refused_delete = self._scenario(
            tmp_path, body
        )
        assert accepted == (202, {"draining": True, "already_draining": False})
        assert health[1]["status"] == "draining"
        assert again[1]["already_draining"] is True
        assert refused_put[0] == 503
        assert refused_delete[0] == 503
