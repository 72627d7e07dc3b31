"""Microphone spacings measured on three handsets, for tests that need
a device other than the reference handset (tdoa.DEFAULT_DEVICE).

A handset is a pose: render on one at
REFERENCE_POSE.with_spacing(device.mic_spacing_m), which keeps the
bottom mic 1 cm below the mouth, and measure it with the DeviceSpec."""

from phonotdoa.tdoa import DeviceSpec

NOTE3 = DeviceSpec(mic_spacing_m=0.151, name="note3")
NOTE5 = DeviceSpec(mic_spacing_m=0.153, name="note5")
S5 = DeviceSpec(mic_spacing_m=0.141, name="s5")
