//! Wire-format size models.
//!
//! The JHTDB front end is a SOAP Web-service: "a Web-service request will
//! be much larger due to the overhead of wrapping the data in an xml
//! format" (paper §5.3). Result sizes feed the LAN/WAN device models, so
//! the encodings must be realistic: the XML size model is held to a real
//! encoder of the SOAP document (in this module's tests).

/// Binary wire size of a threshold-point result between node and mediator
/// (zindex + value per point plus a small header).
pub fn binary_result_bytes(npoints: u64) -> u64 {
    64 + npoints * 12
}

/// Size of the user-bound XML message for `npoints` result points, using
/// the measured per-point cost of the SOAP encoder in this module's tests.
pub fn xml_result_bytes(npoints: u64) -> u64 {
    // representative point: ~70 bytes of markup per point + envelope
    const ENVELOPE: u64 = 200;
    const PER_POINT: u64 = 72;
    ENVELOPE + npoints * PER_POINT
}

/// Size of a raw-field cutout shipped to a user as XML-wrapped base64-ish
/// payload (the "local evaluation" baseline of §5.3): `ncomp` f32 values
/// per point with ~1.4× transport inflation.
pub fn xml_cutout_bytes(npoints: u64, ncomp: u64) -> u64 {
    const ENVELOPE: u64 = 200;
    ENVELOPE + (npoints * ncomp * 4) * 14 / 10
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_cache::ThresholdPoint;

    /// Renders a result set as the SOAP-style XML document a JHTDB client
    /// would receive.
    fn xml_encode(points: &[ThresholdPoint]) -> String {
        let mut out = String::with_capacity(points.len() * 80 + 256);
        out.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>\n");
        out.push_str("<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\">\n");
        out.push_str("<soap:Body><GetThresholdResponse>\n");
        for p in points {
            let (x, y, z) = p.coords();
            out.push_str(&format!(
                "<Point><x>{x}</x><y>{y}</y><z>{z}</z><value>{:.6}</value></Point>\n",
                p.value
            ));
        }
        out.push_str("</GetThresholdResponse></soap:Body></soap:Envelope>\n");
        out
    }

    #[test]
    fn xml_size_model_matches_real_encoder() {
        let points: Vec<ThresholdPoint> = (0..500)
            .map(|i| ThresholdPoint::at(i % 64, (i / 64) % 64, i % 17, 42.5 + i as f32))
            .collect();
        let real = xml_encode(&points).len() as u64;
        let model = xml_result_bytes(points.len() as u64);
        let ratio = real as f64 / model as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "model {model} vs real {real} (ratio {ratio})"
        );
    }

    #[test]
    fn xml_is_much_larger_than_binary() {
        assert!(xml_result_bytes(1000) > 4 * binary_result_bytes(1000));
    }

    #[test]
    fn xml_document_is_well_formed_enough() {
        let points = vec![ThresholdPoint::at(1, 2, 3, 9.5)];
        let doc = xml_encode(&points);
        assert!(doc.contains("<x>1</x>"));
        assert!(doc.contains("<value>9.500000</value>"));
        assert_eq!(
            doc.matches("<Point>").count(),
            doc.matches("</Point>").count()
        );
    }

    #[test]
    fn cutout_scales_with_components() {
        let one = xml_cutout_bytes(1_000_000, 1);
        let nine = xml_cutout_bytes(1_000_000, 9);
        assert!(nine > 8 * one && nine < 10 * one);
    }
}
