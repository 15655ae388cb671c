"""The OTIS application substrate (§7).

The Orbital Thermal Imaging Spectrometer collects radiation data from
the atmosphere and processes it into temperature and emissivity
mappings.  This subpackage provides the full data path the paper's
second benchmark exercises:

* :mod:`repro.otis.quantize` — the detector's 16-bit fixed-point DN
  storage encoding (the representation faults strike);
* :mod:`repro.otis.planck` — Planck radiance and brightness-temperature
  inversion;
* :mod:`repro.otis.spectrometer` — band definitions and the radiance
  cube sensing model;
* :mod:`repro.otis.temperature` — temperature / emissivity separation
  (the science output products of §7.1);
* :mod:`repro.otis.bounds` — physical and geographic bound presets;
* :mod:`repro.otis.alft` — Application-Level Fault Tolerance with a
  scaled-down secondary and logic-grid output selection.
"""

from repro.otis.alft import ALFTExecutor, ALFTOutcome, LogicGrid
from repro.otis.bounds import arctic_bounds, default_bounds, tropical_bounds
from repro.otis.planck import brightness_temperature, planck_radiance
from repro.otis.quantize import decode_dn, encode_dn
from repro.otis.spectrometer import Band, Spectrometer, default_bands
from repro.otis.temperature import emissivity_cube, temperature_map

__all__ = [
    "ALFTExecutor",
    "ALFTOutcome",
    "Band",
    "LogicGrid",
    "Spectrometer",
    "arctic_bounds",
    "brightness_temperature",
    "decode_dn",
    "default_bands",
    "default_bounds",
    "emissivity_cube",
    "encode_dn",
    "planck_radiance",
    "temperature_map",
    "tropical_bounds",
]
