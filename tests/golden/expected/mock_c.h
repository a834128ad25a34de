// Auto-generated unit test scaffolding. Edit only between
// ULTGEN-ANCHOR markers; regeneration keeps those regions.
#ifndef ULTGEN_MOCK_C_H
#define ULTGEN_MOCK_C_H

class MOCK_C : public C
{
public:
    void SetVariable1(int value)
    {
        variable1 = value;
    }
    void SetVariable2(int value)
    {
        variable2 = value;
    }
};

#endif
