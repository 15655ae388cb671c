"""The space-to-ground downlink: packetisation, CRC-16, ARQ.

Figure 1 ends with the compressed baseline image "transmitted to the
base station on earth" over a bandwidth-limited link.  This module
models that hop: the Rice-compressed payload is split into packets,
each protected by a CRC-16 and retransmitted on failure (stop-and-wait
ARQ), with bit errors drawn from the same Gilbert–Elliott burst channel
as :mod:`repro.faults.transit`.

It closes the loop on the paper's bandwidth argument: input bit-flips
inflate the compressed payload (see the ``compression`` experiment) and
channel bursts inflate the retransmission count — both eat the same
scarce downlink budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CodecError, ConfigurationError
from repro.faults.transit import GilbertElliottConfig, burst_flip_stream

#: CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF, no reflection.
_CRC_POLY = 0x1021
_CRC_INIT = 0xFFFF


def _build_crc_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _CRC_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC_TABLE = _build_crc_table()


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of *data* (check value of b'123456789' is 0x29B1)."""
    crc = _CRC_INIT
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


@dataclass(frozen=True)
class DownlinkConfig:
    """Packet framing and ARQ policy.

    Attributes:
        payload_bytes: data bytes per packet.
        max_retransmits: attempts per packet beyond the first before the
            transfer is declared failed.
        channel: the burst-error channel both directions share (ACKs are
            assumed protected — the standard simplification).
    """

    payload_bytes: int = 1024
    max_retransmits: int = 8
    channel: GilbertElliottConfig = GilbertElliottConfig(
        p_good_to_bad=2e-6, p_bad_to_good=0.02, flip_prob_bad=0.3
    )

    def __post_init__(self) -> None:
        if self.payload_bytes < 1:
            raise ConfigurationError(
                f"payload_bytes must be >= 1, got {self.payload_bytes}"
            )
        if self.max_retransmits < 0:
            raise ConfigurationError(
                f"max_retransmits must be >= 0, got {self.max_retransmits}"
            )


@dataclass(frozen=True)
class DownlinkReport:
    """Accounting for one transfer.

    Attributes:
        delivered: the bytes the receiver accepted (CRC-clean packets,
            in order).
        n_packets: packets in the transfer.
        n_transmissions: total packet transmissions including retries.
        n_crc_rejections: receptions discarded by the CRC check.
        n_undetected_errors: corrupted packets the CRC failed to catch
            (accepted with damage) — possible but ~2⁻¹⁶ rare.
        bits_on_wire: total bits transmitted (the bandwidth cost).
    """

    delivered: bytes
    n_packets: int
    n_transmissions: int
    n_crc_rejections: int
    n_undetected_errors: int
    bits_on_wire: int

    @property
    def efficiency(self) -> float:
        """Useful payload bits / bits on the wire."""
        if self.bits_on_wire == 0:
            return 1.0
        return len(self.delivered) * 8 / self.bits_on_wire

    @property
    def intact(self) -> bool:
        return self.n_undetected_errors == 0


class ARQDownlink:
    """Stop-and-wait ARQ transfer over the burst channel."""

    def __init__(
        self,
        config: DownlinkConfig | None = None,
        seed: "int | np.random.SeedSequence | np.random.Generator" = 0,
    ) -> None:
        self.config = config or DownlinkConfig()
        self._rng = np.random.default_rng(seed)

    def _corrupt(self, packet: bytes) -> bytes:
        flips = burst_flip_stream(len(packet) * 8, self.config.channel, self._rng)
        if not flips.any():
            return packet
        as_bits = np.unpackbits(np.frombuffer(packet, dtype=np.uint8))
        as_bits ^= flips.astype(np.uint8)
        return np.packbits(as_bits).tobytes()

    def transmit(self, blob: bytes) -> DownlinkReport:
        """Transfer *blob*; returns the receiver-side view.

        Raises :class:`CodecError` when a packet exhausts its
        retransmission budget (the frame is lost for this pass).
        """
        cfg = self.config
        packets = [
            blob[i : i + cfg.payload_bytes]
            for i in range(0, len(blob), cfg.payload_bytes)
        ] or [b""]
        delivered = bytearray()
        transmissions = 0
        rejections = 0
        undetected = 0
        bits = 0
        for index, payload in enumerate(packets):
            checksum = crc16(payload).to_bytes(2, "big")
            accepted = False
            for _attempt in range(cfg.max_retransmits + 1):
                transmissions += 1
                frame = payload + checksum
                bits += len(frame) * 8
                received = self._corrupt(frame)
                body, received_crc = received[:-2], received[-2:]
                if crc16(body).to_bytes(2, "big") == received_crc:
                    if body != payload:
                        undetected += 1
                    delivered.extend(body)
                    accepted = True
                    break
                rejections += 1
            if not accepted:
                raise CodecError(
                    f"packet {index} exhausted {cfg.max_retransmits} retransmits"
                )
        return DownlinkReport(
            delivered=bytes(delivered),
            n_packets=len(packets),
            n_transmissions=transmissions,
            n_crc_rejections=rejections,
            n_undetected_errors=undetected,
            bits_on_wire=bits,
        )
